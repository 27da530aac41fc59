// tqcover_inspect: renders a TQ-tree, a facility route, and the users it
// serves as an SVG — the fastest way to *see* why the index prunes well (or
// doesn't) on a given workload.
//
//   tqcover_inspect --users trips.bin --facilities routes.bin
//                   --facility 4 --out picture.svg [--psi 200] [--beta 64]
//
// Rendering: the q-node rectangles of a segmented TQ-tree over the users
// (thicker = higher level; a whole tree is a cell index and has no nodes),
// facility stops as dots joined by the route polyline, served users as
// green segments, candidate-but-unserved as amber, the EMBR as a dashed
// border.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "query/eval_service.h"
#include "tqtree/tq_tree.h"
#include "traj/io.h"

namespace {

using tq::Status;

struct Args {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& key, const std::string& def = "") const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::stod(it->second);
  }
};

class SvgWriter {
 public:
  SvgWriter(std::ostream& os, const tq::Rect& world, double pixels)
      : os_(os),
        world_(world),
        scale_(pixels / std::max(world.Width(), world.Height())) {
    os_ << "<svg xmlns='http://www.w3.org/2000/svg' width='"
        << world.Width() * scale_ << "' height='" << world.Height() * scale_
        << "' style='background:#10141a'>\n";
  }
  ~SvgWriter() { os_ << "</svg>\n"; }

  double X(double x) const { return (x - world_.min_x) * scale_; }
  // SVG y grows downward; flip so north is up.
  double Y(double y) const { return (world_.max_y - y) * scale_; }

  void RectOutline(const tq::Rect& r, const std::string& stroke,
                   double width, const std::string& extra = "") {
    os_ << "<rect x='" << X(r.min_x) << "' y='" << Y(r.max_y) << "' width='"
        << r.Width() * scale_ << "' height='" << r.Height() * scale_
        << "' fill='none' stroke='" << stroke << "' stroke-width='" << width
        << "' " << extra << "/>\n";
  }
  void Line(const tq::Point& a, const tq::Point& b, const std::string& color,
            double width) {
    os_ << "<line x1='" << X(a.x) << "' y1='" << Y(a.y) << "' x2='" << X(b.x)
        << "' y2='" << Y(b.y) << "' stroke='" << color << "' stroke-width='"
        << width << "'/>\n";
  }
  void Dot(const tq::Point& p, double radius, const std::string& color) {
    os_ << "<circle cx='" << X(p.x) << "' cy='" << Y(p.y) << "' r='"
        << radius << "' fill='" << color << "'/>\n";
  }

 private:
  std::ostream& os_;
  tq::Rect world_;
  double scale_;
};

bool IsBinaryPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

Status LoadSet(const std::string& path, tq::TrajectorySet* out) {
  return IsBinaryPath(path) ? tq::LoadTrajectoryBinary(path, out)
                            : tq::LoadTrajectoryCsv(path, out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (argv[i][0] != '-') break;
    args.kv[argv[i] + 2] = argv[i + 1];
  }
  const std::string users_path = args.Get("users");
  const std::string facs_path = args.Get("facilities");
  const std::string out_path = args.Get("out", "tqcover.svg");
  if (users_path.empty() || facs_path.empty()) {
    std::fprintf(stderr,
                 "usage: tqcover_inspect --users FILE --facilities FILE "
                 "[--facility ID] [--psi 200] [--beta 64] [--out FILE.svg]\n");
    return 2;
  }
  tq::TrajectorySet users, facilities;
  Status st = LoadSet(users_path, &users);
  if (st.ok()) st = LoadSet(facs_path, &facilities);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const auto facility =
      static_cast<uint32_t>(args.GetDouble("facility", 0));
  if (facility >= facilities.size()) {
    std::fprintf(stderr, "facility %u out of range (%zu routes)\n", facility,
                 facilities.size());
    return 2;
  }
  const double psi = args.GetDouble("psi", 200.0);
  const tq::ServiceModel model = tq::ServiceModel::Endpoints(psi);
  tq::TQTreeOptions opt;
  opt.beta = static_cast<size_t>(args.GetDouble("beta", 64));
  // The skeleton is the quadtree's alone: no z-index is drawn.
  opt.variant = tq::IndexVariant::kBasic;
  opt.mode = tq::TrajMode::kSegmented;
  opt.model = model;
  tq::TQTree tree(&users, opt);
  const tq::ServiceEvaluator eval(&users, model);
  const tq::StopGrid grid(facilities.points(facility), psi);

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  {
    SvgWriter svg(os, tree.world(), 1600.0);
    // Q-node skeleton: deeper nodes thinner and dimmer.
    for (size_t i = 0; i < tree.num_nodes(); ++i) {
      const tq::TQNode& n = tree.node(static_cast<int32_t>(i));
      const double width = std::max(0.3, 2.5 - 0.35 * n.depth);
      svg.RectOutline(n.rect, "#2d3d55", width);
    }
    // Users: draw a sample (up to 4000) as segments, colour by service.
    const size_t step = std::max<size_t>(1, users.size() / 4000);
    for (uint32_t u = 0; u < users.size(); u += step) {
      const auto pts = users.points(u);
      const bool served = eval.Evaluate(u, grid) > 0.0;
      const bool touched =
          grid.Serves(pts.front()) || grid.Serves(pts.back());
      const char* color =
          served ? "#37d67a" : (touched ? "#e8a33d" : "#3a4350");
      for (size_t i = 1; i < pts.size(); ++i) {
        svg.Line(pts[i - 1], pts[i], color, served ? 1.4 : 0.7);
      }
    }
    // Facility EMBR + route + stops on top.
    svg.RectOutline(grid.embr(), "#e4573d", 2.0,
                    "stroke-dasharray='8 5'");
    const auto stops = facilities.points(facility);
    for (size_t i = 1; i < stops.size(); ++i) {
      svg.Line(stops[i - 1], stops[i], "#e4573d", 2.2);
    }
    for (const tq::Point& s : stops) svg.Dot(s, 3.2, "#ffd166");
  }
  os.flush();
  double so = 0.0;
  for (uint32_t u = 0; u < users.size(); ++u) so += eval.Evaluate(u, grid);
  std::printf("wrote %s — facility %u serves SO=%.0f of %zu users "
              "(psi=%.0fm)\n",
              out_path.c_str(), facility, so, users.size(), psi);
  return 0;
}
