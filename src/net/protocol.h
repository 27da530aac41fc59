// Wire protocol of the network front-end: compact length-prefixed binary
// frames carrying BATCHES of requests, so one round-trip amortizes syscall
// and dispatch cost over many queries (the cctools catalog/worker protocol
// is the shape exemplar; the encoding here is fixed-width little-endian
// instead of text).
//
//   frame    := [u32 length][payload]         length = payload bytes
//   request  := version type ψ body           (client → server)
//   response := version type status version64 body   (server → client)
//
// One request frame yields exactly one response frame, and responses are
// written in request-arrival order per connection (pipelining: a client may
// send many frames before reading any response). Full byte layout, error
// codes and versioning rules are documented in docs/PROTOCOL.md — keep the
// two in sync.
//
// Everything here is transport-free: encode/decode over byte buffers, plus
// the incremental FrameAssembler both sides use to split a TCP stream into
// payloads. Decoders are bounds-checked and never trust a length field
// beyond the configured frame cap, so a malformed or hostile peer costs at
// most one frame's allocation.
#ifndef TQCOVER_NET_PROTOCOL_H_
#define TQCOVER_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/point.h"
#include "query/topk.h"
#include "service/facility_index.h"

namespace tq::net {

/// Bumped on any incompatible layout change; a server answers a version it
/// does not speak with kInvalidArgument and closes the connection.
/// v2: kStatus responses carry a durability block after the worker table.
inline constexpr uint8_t kProtocolVersion = 2;
/// Bytes of the [u32 length] frame header.
inline constexpr size_t kFrameHeaderBytes = 4;
/// Default cap on one frame's payload (both directions). A length field
/// above the cap is unrecoverable — the stream cannot be resynced — so the
/// connection is closed.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/// Frame types. kError only ever appears in responses (a request the server
/// could not decode still gets an answer, so pipelined clients never stall).
enum class MessageType : uint8_t {
  kError = 0,
  kSum = 1,     // batch of per-facility service-value queries
  kTopK = 2,    // batch of kMaxRRST queries
  kUpdate = 3,  // trajectory inserts + removes (a write batch)
  kStats = 4,   // metrics + latency histograms + recent traces introspection
  // Coordinator/worker frames (the distributed serving layer; the cctools
  // work_queue master/worker registration+heartbeat protocol is the shape
  // exemplar).
  kRegister = 5,   // coordinator -> worker: identify yourself
  kHeartbeat = 6,  // coordinator -> worker: liveness probe (echoed seq)
  kBound = 7,      // round-1 top-k bound sweep over the worker's shards
  kStatus = 8,     // cluster status: self info + per-worker liveness table
  // Types 9 and 10 are retired (they carried standing queries) and must
  // never be reused: both sides reject them as unknown.
};

/// One latency histogram summary inside a stats response — the wire form of
/// a runtime HistogramSnapshot (name = OpFamilyName; times in nanoseconds).
struct WireHistogram {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
};

/// One span of a wire trace; start/end are offsets from the trace start.
struct WireSpan {
  std::string name;
  int32_t shard = -1;  // -1 = not shard-specific
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One finished query/frame trace inside a stats response — the wire form
/// of a runtime Trace.
struct WireTrace {
  std::string op;
  uint64_t detail = 0;
  uint64_t total_ns = 0;
  uint64_t snapshot_version = 0;
  uint64_t unix_ms = 0;
  uint32_t dropped_spans = 0;
  std::vector<WireSpan> spans;
};

/// Full payload of a kStats response: every registry counter by name (in
/// registry declaration order), every per-op latency histogram, and the
/// server's recent traces sorted slowest-first.
struct WireStats {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<WireHistogram> histograms;
  std::vector<WireTrace> traces;
};

/// Machine-parsable one-line JSON rendering of a scraped WireStats (the
/// `# json:` form `tqcover_cli stats` emits; CI parses it).
std::string WireStatsToJson(const WireStats& stats);

/// A serving process's identity, carried by kRegister and kStatus responses.
/// A worker owns the Z-order shard range [owned_begin, owned_end) of a
/// `num_shards`-way partition computed over the FULL user set — every peer
/// must agree on num_shards, psi, num_facilities and users_total, or their
/// per-shard answers are not composable.
struct WireWorkerInfo {
  uint32_t num_shards = 0;
  uint32_t owned_begin = 0;
  uint32_t owned_end = 0;  // == num_shards and begin == 0 for all-owning
  double psi = 0.0;
  uint32_t num_facilities = 0;
  uint64_t users_total = 0;
};

/// One worker's liveness row inside a coordinator's kStatus response.
struct WireWorkerStatus {
  std::string address;  // "host:port"
  uint8_t state = 0;    // runtime::WorkerRegistry::State numeric value
  uint32_t owned_begin = 0;
  uint32_t owned_end = 0;
  uint64_t heartbeats = 0;   // successful heartbeat round-trips
  uint64_t failures = 0;     // RPC failures observed against this worker
  uint64_t age_ms = 0;       // time since the last successful contact
  uint64_t rtt_count = 0;    // per-worker RTT histogram summary
  uint64_t rtt_p50_ns = 0;
  uint64_t rtt_p99_ns = 0;
};

/// Durability block of a kStatus response — the wire form of the engine's
/// storage::RecoveryInfo plus its live checkpoint LSN. All-zero when the
/// process serves without a data dir.
struct WireDurability {
  uint8_t flags = 0;  // bit0 durable, bit1 recovered, bit2 WAL tail was torn
  uint64_t checkpoint_lsn = 0;    // latest committed checkpoint (0 = none)
  uint64_t last_lsn = 0;          // current snapshot version
  uint64_t replayed_batches = 0;  // WAL records applied at startup
  uint64_t recovery_ns = 0;       // startup load + replay wall time

  bool durable() const { return flags & 1; }
  bool recovered() const { return flags & 2; }
  bool wal_torn_tail() const { return flags & 4; }
};

/// Machine-parsable one-line JSON for a kStatus scrape (`tqcover_cli status`
/// emits it as `# json:`; the CI distributed-smoke and crash-recovery jobs
/// parse it).
std::string WireStatusToJson(const WireWorkerInfo& self,
                             const std::vector<WireWorkerStatus>& workers,
                             const WireDurability& durability);

/// One decoded request frame. Exactly the fields of the frame's type are
/// populated; ψ = 0 means "serve with the engine's configured ψ", any other
/// value must match it exactly (the index is built for one ψ).
struct NetRequest {
  MessageType type = MessageType::kSum;
  double psi = 0.0;
  std::vector<FacilityId> facilities;       // kSum: one query per id
  std::vector<uint32_t> ks;                 // kTopK: one query per k
  /// kUpdate. Every trajectory must have ≥ 1 point (the shard router keys
  /// off the first point); DecodeRequest rejects empty ones.
  std::vector<std::vector<Point>> inserts;
  std::vector<uint32_t> removes;            // kUpdate: global trajectory ids
  /// kStats: cap on returned traces (the server additionally clamps).
  uint32_t stats_max_traces = 0;
  /// kBound: the k of the top-k query whose round-1 sweep this is.
  uint32_t bound_k = 0;
  /// kHeartbeat: caller-chosen sequence number, echoed by the response.
  uint64_t heartbeat_seq = 0;

  static NetRequest Sum(std::vector<FacilityId> facilities) {
    NetRequest r;
    r.type = MessageType::kSum;
    r.facilities = std::move(facilities);
    return r;
  }
  static NetRequest TopK(std::vector<uint32_t> ks) {
    NetRequest r;
    r.type = MessageType::kTopK;
    r.ks = std::move(ks);
    return r;
  }
  static NetRequest Update(std::vector<std::vector<Point>> inserts,
                           std::vector<uint32_t> removes) {
    NetRequest r;
    r.type = MessageType::kUpdate;
    r.inserts = std::move(inserts);
    r.removes = std::move(removes);
    return r;
  }
  static NetRequest Stats(uint32_t max_traces) {
    NetRequest r;
    r.type = MessageType::kStats;
    r.stats_max_traces = max_traces;
    return r;
  }
  static NetRequest Register() {
    NetRequest r;
    r.type = MessageType::kRegister;
    return r;
  }
  static NetRequest Heartbeat(uint64_t seq) {
    NetRequest r;
    r.type = MessageType::kHeartbeat;
    r.heartbeat_seq = seq;
    return r;
  }
  static NetRequest Bound(uint32_t k) {
    NetRequest r;
    r.type = MessageType::kBound;
    r.bound_k = k;
    return r;
  }
  static NetRequest ClusterStatus() {
    NetRequest r;
    r.type = MessageType::kStatus;
    return r;
  }
};

/// Per-query result inside a batched sum response. Individual queries can
/// fail (facility id out of range) without failing the frame.
struct SumResult {
  StatusCode code = StatusCode::kOk;
  double value = 0.0;
};

/// Per-query result inside a batched top-k response. (Named RankedResult to
/// stay distinct from tq::TopKResult, the in-process query result.)
struct RankedResult {
  StatusCode code = StatusCode::kOk;
  std::vector<RankedFacility> ranked;
};

/// One decoded response frame. `status` is the frame-level outcome; the
/// per-query vectors are populated only when it is OK.
struct NetResponse {
  MessageType type = MessageType::kError;
  Status status;
  /// Engine snapshot version the answers were computed against (the highest
  /// seen when sub-queries of one batch straddle a publish).
  uint64_t snapshot_version = 0;
  std::vector<SumResult> sums;                // kSum, frame order
  std::vector<RankedResult> topks;            // kTopK, frame order
  std::vector<uint64_t> shard_generations;    // kUpdate: post-publish gens
  std::vector<uint32_t> assigned_ids;         // kUpdate: ids for `inserts`
  WireStats stats;                            // kStats
  WireWorkerInfo worker_info;                 // kRegister, kStatus (self)
  std::vector<WireWorkerStatus> workers;      // kStatus (empty on workers)
  WireDurability durability;                  // kStatus
  /// kBound: per-facility upper bounds Σ_{owned s} UB_s(f), facility order.
  /// (The frame also keeps a settled-pairs slot, always encoded empty and
  /// skipped on decode; see docs/PROTOCOL.md.)
  std::vector<double> bounds;
  uint64_t heartbeat_seq = 0;      // kHeartbeat: echoed request seq
  uint64_t heartbeat_queries = 0;  // kHeartbeat: worker's queries_total
};

/// Appends one whole frame (header + payload) for `request` to `*out`.
void EncodeRequest(const NetRequest& request, std::string* out);

/// The BODY of a kUpdate request (no frame header, version, type, or ψ):
/// u32 insert count, then per trajectory u32 point count + f64 x/y pairs,
/// then u32 remove count + u32 global ids. This exact byte layout is also
/// the WAL record payload (storage/wal.h) — one codec, two consumers, so a
/// replayed batch is bit-identical to the frame that carried it.
void EncodeUpdateBody(const std::vector<std::vector<Point>>& inserts,
                      const std::vector<uint32_t>& removes, std::string* out);
/// Decodes one EncodeUpdateBody payload. Rejects empty trajectories and
/// trailing bytes; never reads out of bounds.
Status DecodeUpdateBody(std::string_view body,
                        std::vector<std::vector<Point>>* inserts,
                        std::vector<uint32_t>* removes);
/// Appends one whole frame (header + payload) for `response` to `*out`.
void EncodeResponse(const NetResponse& response, std::string* out);

/// Decodes a request payload (frame header already stripped). Returns
/// kInvalidArgument on wrong version, unknown type, or truncated body;
/// never reads out of bounds.
Status DecodeRequest(std::string_view payload, NetRequest* out);
/// Decodes a response payload (frame header already stripped).
Status DecodeResponse(std::string_view payload, NetResponse* out);

/// Incremental frame splitter over a byte stream. Feed() raw socket bytes,
/// then pop complete payloads with Next() until it reports kNeedMore.
class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Result {
    kFrame,     // one payload extracted; call Next() again
    kNeedMore,  // header or body incomplete; Feed() more bytes
    kBad,       // zero or oversized length — the stream cannot be resynced
  };

  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  Result Next(std::string* payload);

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix; compacted between frames
  size_t max_frame_bytes_;
};

}  // namespace tq::net

#endif  // TQCOVER_NET_PROTOCOL_H_
