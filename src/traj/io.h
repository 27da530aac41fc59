// CSV import/export for trajectory sets, so real datasets (e.g. NYC TLC
// trips, Geolife) can be plugged in place of the synthetic generators.
//
// Format: one trajectory per line, points separated by ';', coordinates by
// ',':  x1,y1;x2,y2;...  Blank lines and lines starting with '#' are skipped.
#ifndef TQCOVER_TRAJ_IO_H_
#define TQCOVER_TRAJ_IO_H_

#include <string>

#include "common/status.h"
#include "traj/dataset.h"

namespace tq {

/// Parses a trajectory file into `out` (appended). Fails with IOError /
/// InvalidArgument on unreadable files or malformed lines.
Status LoadTrajectoryCsv(const std::string& path, TrajectorySet* out);

/// Writes `set` in the same format.
Status SaveTrajectoryCsv(const std::string& path, const TrajectorySet& set);

/// Parses a single CSV line ("x1,y1;x2,y2") into points appended to `out`.
Status ParseTrajectoryLine(const std::string& line, std::vector<Point>* out);

/// Packed binary format ("TQJ1" magic) — ~6× smaller and ~20× faster than
/// CSV for million-trip sets; checkpoints store shard users in it.
Status SaveTrajectoryBinary(const std::string& path,
                            const TrajectorySet& set);

/// Loads a file written by SaveTrajectoryBinary into `out` (appended).
Status LoadTrajectoryBinary(const std::string& path, TrajectorySet* out);

}  // namespace tq

#endif  // TQCOVER_TRAJ_IO_H_
