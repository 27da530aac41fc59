#include "net/protocol.h"

#include <cstdio>
#include <cstring>

namespace tq::net {
namespace {

// Fixed-width little-endian primitives. memcpy keeps the accesses aligned-
// agnostic; on LE hosts (everything we target) the byte swap is a no-op, and
// the explicit shifts keep the format well-defined elsewhere.
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}
void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}
void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked sequential reader over a payload. Every Get returns false
/// once the payload is exhausted; callers bail out on the first failure, so
/// a truncated frame can never read out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view payload) : data_(payload) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetBytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size() || pos_ + n < pos_) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  /// u8 length + bytes — the short-string form stats frames use for names.
  bool GetName(std::string* out) {
    uint8_t n = 0;
    return GetU8(&n) && GetBytes(n, out);
  }
  /// A count field must leave at least `min_entry_bytes × count` bytes in
  /// the payload — rejects absurd counts before any allocation.
  bool Plausible(uint32_t count, size_t min_entry_bytes) const {
    return static_cast<uint64_t>(count) * min_entry_bytes <=
           data_.size() - pos_;
  }
  /// Skips bytes a Plausible() check has already shown are present.
  void Skip(size_t n) { pos_ += n; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what +
                                 " payload");
}

StatusCode CodeFromWire(uint8_t raw) {
  // Unknown codes (a newer peer) collapse to kInternal rather than UB.
  return raw > static_cast<uint8_t>(StatusCode::kOverloaded)
             ? StatusCode::kInternal
             : static_cast<StatusCode>(raw);
}

/// Replaces the placeholder length header at `frame_start` once the payload
/// is fully appended.
void PatchLength(std::string* out, size_t frame_start) {
  const size_t payload = out->size() - frame_start - kFrameHeaderBytes;
  const auto v = static_cast<uint32_t>(payload);
  (*out)[frame_start + 0] = static_cast<char>(v);
  (*out)[frame_start + 1] = static_cast<char>(v >> 8);
  (*out)[frame_start + 2] = static_cast<char>(v >> 16);
  (*out)[frame_start + 3] = static_cast<char>(v >> 24);
}

/// Short-string encoding for counter / histogram / span names: u8 length +
/// bytes. All producers are static identifiers well under 255 bytes; a
/// longer string is truncated rather than corrupting the frame.
void PutName(std::string* out, const std::string& s) {
  const size_t n = s.size() > 255 ? 255 : s.size();
  PutU8(out, static_cast<uint8_t>(n));
  out->append(s.data(), n);
}

/// 28-byte fixed layout shared by kRegister and kStatus responses.
void PutWorkerInfo(std::string* out, const WireWorkerInfo& info) {
  PutU32(out, info.num_shards);
  PutU32(out, info.owned_begin);
  PutU32(out, info.owned_end);
  PutF64(out, info.psi);
  PutU32(out, info.num_facilities);
  PutU64(out, info.users_total);
}

bool GetWorkerInfo(Reader* r, WireWorkerInfo* info) {
  return r->GetU32(&info->num_shards) && r->GetU32(&info->owned_begin) &&
         r->GetU32(&info->owned_end) && r->GetF64(&info->psi) &&
         r->GetU32(&info->num_facilities) && r->GetU64(&info->users_total);
}

/// Update-body reader shared by DecodeRequest's kUpdate branch and the
/// public DecodeUpdateBody (WAL replay). The two paths MUST stay one code
/// path: a payload the server accepted from the wire must replay.
Status ReadUpdateBody(Reader* r, std::vector<std::vector<Point>>* inserts,
                      std::vector<uint32_t>* removes) {
  uint32_t count = 0;
  if (!r->GetU32(&count) || !r->Plausible(count, 4)) {
    return Truncated("update request");
  }
  inserts->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t num_points = 0;
    if (!r->GetU32(&num_points) || !r->Plausible(num_points, 16)) {
      return Truncated("update request");
    }
    // Trajectories are non-empty by library invariant (routing keys off
    // the first point); reject here so no wire bytes can reach the
    // engine's checks.
    if (num_points == 0) {
      return Status::InvalidArgument("empty insert trajectory");
    }
    (*inserts)[i].resize(num_points);
    for (uint32_t p = 0; p < num_points; ++p) {
      Point& pt = (*inserts)[i][p];
      if (!r->GetF64(&pt.x) || !r->GetF64(&pt.y)) {
        return Truncated("update request");
      }
    }
  }
  if (!r->GetU32(&count) || !r->Plausible(count, 4)) {
    return Truncated("update request");
  }
  removes->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r->GetU32(&(*removes)[i])) return Truncated("update request");
  }
  return Status::OK();
}

}  // namespace

void EncodeUpdateBody(const std::vector<std::vector<Point>>& inserts,
                      const std::vector<uint32_t>& removes,
                      std::string* out) {
  PutU32(out, static_cast<uint32_t>(inserts.size()));
  for (const auto& traj : inserts) {
    PutU32(out, static_cast<uint32_t>(traj.size()));
    for (const Point& p : traj) {
      PutF64(out, p.x);
      PutF64(out, p.y);
    }
  }
  PutU32(out, static_cast<uint32_t>(removes.size()));
  for (const uint32_t id : removes) PutU32(out, id);
}

Status DecodeUpdateBody(std::string_view body,
                        std::vector<std::vector<Point>>* inserts,
                        std::vector<uint32_t>* removes) {
  Reader r(body);
  const Status st = ReadUpdateBody(&r, inserts, removes);
  if (!st.ok()) return st;
  if (!r.Done()) return Status::InvalidArgument("trailing update body bytes");
  return Status::OK();
}

void EncodeRequest(const NetRequest& request, std::string* out) {
  const size_t frame_start = out->size();
  PutU32(out, 0);  // length, patched below
  PutU8(out, kProtocolVersion);
  PutU8(out, static_cast<uint8_t>(request.type));
  PutF64(out, request.psi);
  switch (request.type) {
    case MessageType::kSum:
      PutU32(out, static_cast<uint32_t>(request.facilities.size()));
      for (const FacilityId f : request.facilities) PutU32(out, f);
      break;
    case MessageType::kTopK:
      PutU32(out, static_cast<uint32_t>(request.ks.size()));
      for (const uint32_t k : request.ks) PutU32(out, k);
      break;
    case MessageType::kUpdate:
      EncodeUpdateBody(request.inserts, request.removes, out);
      break;
    case MessageType::kStats:
      PutU32(out, request.stats_max_traces);
      break;
    case MessageType::kBound:
      PutU32(out, request.bound_k);
      break;
    case MessageType::kHeartbeat:
      PutU64(out, request.heartbeat_seq);
      break;
    case MessageType::kRegister:
    case MessageType::kStatus:
      break;  // identity / status requests carry no body
    case MessageType::kError:
      break;  // never encoded as a request; empty body
  }
  PatchLength(out, frame_start);
}

void EncodeResponse(const NetResponse& response, std::string* out) {
  const size_t frame_start = out->size();
  PutU32(out, 0);  // length, patched below
  PutU8(out, kProtocolVersion);
  PutU8(out, static_cast<uint8_t>(response.type));
  PutU8(out, static_cast<uint8_t>(response.status.code()));
  const std::string& msg = response.status.message();
  PutU32(out, static_cast<uint32_t>(msg.size()));
  out->append(msg);
  PutU64(out, response.snapshot_version);
  if (response.status.ok()) {
    switch (response.type) {
      case MessageType::kSum:
        PutU32(out, static_cast<uint32_t>(response.sums.size()));
        for (const SumResult& r : response.sums) {
          PutU8(out, static_cast<uint8_t>(r.code));
          PutF64(out, r.value);
        }
        break;
      case MessageType::kTopK:
        PutU32(out, static_cast<uint32_t>(response.topks.size()));
        for (const RankedResult& r : response.topks) {
          PutU8(out, static_cast<uint8_t>(r.code));
          PutU32(out, static_cast<uint32_t>(r.ranked.size()));
          for (const RankedFacility& rf : r.ranked) {
            PutU32(out, rf.id);
            PutF64(out, rf.value);
          }
        }
        break;
      case MessageType::kUpdate:
        PutU32(out, static_cast<uint32_t>(response.shard_generations.size()));
        for (const uint64_t g : response.shard_generations) PutU64(out, g);
        PutU32(out, static_cast<uint32_t>(response.assigned_ids.size()));
        for (const uint32_t id : response.assigned_ids) PutU32(out, id);
        break;
      case MessageType::kStats: {
        const WireStats& st = response.stats;
        PutU32(out, static_cast<uint32_t>(st.counters.size()));
        for (const auto& [name, value] : st.counters) {
          PutName(out, name);
          PutU64(out, value);
        }
        PutU32(out, static_cast<uint32_t>(st.histograms.size()));
        for (const WireHistogram& h : st.histograms) {
          PutName(out, h.name);
          PutU64(out, h.count);
          PutU64(out, h.sum_ns);
          PutU64(out, h.p50_ns);
          PutU64(out, h.p90_ns);
          PutU64(out, h.p99_ns);
          PutU64(out, h.max_ns);
        }
        PutU32(out, static_cast<uint32_t>(st.traces.size()));
        for (const WireTrace& t : st.traces) {
          PutName(out, t.op);
          PutU64(out, t.detail);
          PutU64(out, t.total_ns);
          PutU64(out, t.snapshot_version);
          PutU64(out, t.unix_ms);
          PutU32(out, t.dropped_spans);
          PutU32(out, static_cast<uint32_t>(t.spans.size()));
          for (const WireSpan& s : t.spans) {
            PutName(out, s.name);
            PutU32(out, static_cast<uint32_t>(s.shard));  // two's complement
            PutU64(out, s.start_ns);
            PutU64(out, s.end_ns);
          }
        }
        break;
      }
      case MessageType::kRegister:
        PutWorkerInfo(out, response.worker_info);
        break;
      case MessageType::kHeartbeat:
        PutU64(out, response.heartbeat_seq);
        PutU64(out, response.heartbeat_queries);
        break;
      case MessageType::kBound:
        PutU32(out, static_cast<uint32_t>(response.bounds.size()));
        for (const double b : response.bounds) PutF64(out, b);
        PutU32(out, 0);  // settled (id, value) pairs: always none
        break;
      case MessageType::kStatus:
        PutWorkerInfo(out, response.worker_info);
        PutU32(out, static_cast<uint32_t>(response.workers.size()));
        for (const WireWorkerStatus& w : response.workers) {
          PutName(out, w.address);
          PutU8(out, w.state);
          PutU32(out, w.owned_begin);
          PutU32(out, w.owned_end);
          PutU64(out, w.heartbeats);
          PutU64(out, w.failures);
          PutU64(out, w.age_ms);
          PutU64(out, w.rtt_count);
          PutU64(out, w.rtt_p50_ns);
          PutU64(out, w.rtt_p99_ns);
        }
        PutU8(out, response.durability.flags);
        PutU64(out, response.durability.checkpoint_lsn);
        PutU64(out, response.durability.last_lsn);
        PutU64(out, response.durability.replayed_batches);
        PutU64(out, response.durability.recovery_ns);
        break;
      case MessageType::kError:
        break;  // status carries everything
    }
  }
  PatchLength(out, frame_start);
}

Status DecodeRequest(std::string_view payload, NetRequest* out) {
  Reader r(payload);
  uint8_t version = 0, type = 0;
  if (!r.GetU8(&version) || !r.GetU8(&type) || !r.GetF64(&out->psi)) {
    return Truncated("request");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("protocol version " +
                                   std::to_string(version) +
                                   " not supported (server speaks " +
                                   std::to_string(kProtocolVersion) + ")");
  }
  uint32_t count = 0;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kSum: {
      out->type = MessageType::kSum;
      if (!r.GetU32(&count) || !r.Plausible(count, 4)) {
        return Truncated("sum request");
      }
      out->facilities.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetU32(&out->facilities[i])) return Truncated("sum request");
      }
      break;
    }
    case MessageType::kTopK: {
      out->type = MessageType::kTopK;
      if (!r.GetU32(&count) || !r.Plausible(count, 4)) {
        return Truncated("topk request");
      }
      out->ks.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetU32(&out->ks[i])) return Truncated("topk request");
      }
      break;
    }
    case MessageType::kUpdate: {
      out->type = MessageType::kUpdate;
      const Status st = ReadUpdateBody(&r, &out->inserts, &out->removes);
      if (!st.ok()) return st;
      break;
    }
    case MessageType::kStats: {
      out->type = MessageType::kStats;
      if (!r.GetU32(&out->stats_max_traces)) return Truncated("stats request");
      break;
    }
    case MessageType::kBound: {
      out->type = MessageType::kBound;
      if (!r.GetU32(&out->bound_k)) return Truncated("bound request");
      break;
    }
    case MessageType::kHeartbeat: {
      out->type = MessageType::kHeartbeat;
      if (!r.GetU64(&out->heartbeat_seq)) {
        return Truncated("heartbeat request");
      }
      break;
    }
    case MessageType::kRegister:
      out->type = MessageType::kRegister;
      break;
    case MessageType::kStatus:
      out->type = MessageType::kStatus;
      break;
    default:
      return Status::InvalidArgument("unknown request type " +
                                     std::to_string(type));
  }
  if (!r.Done()) return Status::InvalidArgument("trailing request bytes");
  return Status::OK();
}

Status DecodeResponse(std::string_view payload, NetResponse* out) {
  Reader r(payload);
  uint8_t version = 0, type = 0, code = 0;
  uint32_t msg_len = 0;
  std::string msg;
  if (!r.GetU8(&version) || !r.GetU8(&type) || !r.GetU8(&code) ||
      !r.GetU32(&msg_len) || !r.GetBytes(msg_len, &msg) ||
      !r.GetU64(&out->snapshot_version)) {
    return Truncated("response");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("protocol version " +
                                   std::to_string(version) +
                                   " not supported");
  }
  if (type > static_cast<uint8_t>(MessageType::kStatus)) {
    return Status::InvalidArgument("unknown response type " +
                                   std::to_string(type));
  }
  out->type = static_cast<MessageType>(type);
  out->status = code == 0 ? Status::OK()
                          : Status(CodeFromWire(code), std::move(msg));
  if (!out->status.ok()) {
    if (!r.Done()) return Status::InvalidArgument("trailing response bytes");
    return Status::OK();  // transport fine; the frame carries the error
  }
  uint32_t count = 0;
  switch (out->type) {
    case MessageType::kSum: {
      if (!r.GetU32(&count) || !r.Plausible(count, 9)) {
        return Truncated("sum response");
      }
      out->sums.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t c = 0;
        if (!r.GetU8(&c) || !r.GetF64(&out->sums[i].value)) {
          return Truncated("sum response");
        }
        out->sums[i].code = CodeFromWire(c);
      }
      break;
    }
    case MessageType::kTopK: {
      if (!r.GetU32(&count) || !r.Plausible(count, 5)) {
        return Truncated("topk response");
      }
      out->topks.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t c = 0;
        uint32_t n = 0;
        if (!r.GetU8(&c) || !r.GetU32(&n) || !r.Plausible(n, 12)) {
          return Truncated("topk response");
        }
        out->topks[i].code = CodeFromWire(c);
        out->topks[i].ranked.resize(n);
        for (uint32_t j = 0; j < n; ++j) {
          RankedFacility& rf = out->topks[i].ranked[j];
          if (!r.GetU32(&rf.id) || !r.GetF64(&rf.value)) {
            return Truncated("topk response");
          }
        }
      }
      break;
    }
    case MessageType::kUpdate: {
      if (!r.GetU32(&count) || !r.Plausible(count, 8)) {
        return Truncated("update response");
      }
      out->shard_generations.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetU64(&out->shard_generations[i])) {
          return Truncated("update response");
        }
      }
      if (!r.GetU32(&count) || !r.Plausible(count, 4)) {
        return Truncated("update response");
      }
      out->assigned_ids.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetU32(&out->assigned_ids[i])) {
          return Truncated("update response");
        }
      }
      break;
    }
    case MessageType::kStats: {
      WireStats& st = out->stats;
      if (!r.GetU32(&count) || !r.Plausible(count, 9)) {
        return Truncated("stats response");
      }
      st.counters.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetName(&st.counters[i].first) ||
            !r.GetU64(&st.counters[i].second)) {
          return Truncated("stats response");
        }
      }
      if (!r.GetU32(&count) || !r.Plausible(count, 49)) {
        return Truncated("stats response");
      }
      st.histograms.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        WireHistogram& h = st.histograms[i];
        if (!r.GetName(&h.name) || !r.GetU64(&h.count) ||
            !r.GetU64(&h.sum_ns) || !r.GetU64(&h.p50_ns) ||
            !r.GetU64(&h.p90_ns) || !r.GetU64(&h.p99_ns) ||
            !r.GetU64(&h.max_ns)) {
          return Truncated("stats response");
        }
      }
      if (!r.GetU32(&count) || !r.Plausible(count, 41)) {
        return Truncated("stats response");
      }
      st.traces.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        WireTrace& t = st.traces[i];
        uint32_t num_spans = 0;
        if (!r.GetName(&t.op) || !r.GetU64(&t.detail) ||
            !r.GetU64(&t.total_ns) || !r.GetU64(&t.snapshot_version) ||
            !r.GetU64(&t.unix_ms) || !r.GetU32(&t.dropped_spans) ||
            !r.GetU32(&num_spans) || !r.Plausible(num_spans, 21)) {
          return Truncated("stats response");
        }
        t.spans.resize(num_spans);
        for (uint32_t j = 0; j < num_spans; ++j) {
          WireSpan& s = t.spans[j];
          uint32_t shard_bits = 0;
          if (!r.GetName(&s.name) || !r.GetU32(&shard_bits) ||
              !r.GetU64(&s.start_ns) || !r.GetU64(&s.end_ns)) {
            return Truncated("stats response");
          }
          s.shard = static_cast<int32_t>(shard_bits);
        }
      }
      break;
    }
    case MessageType::kRegister: {
      if (!GetWorkerInfo(&r, &out->worker_info)) {
        return Truncated("register response");
      }
      break;
    }
    case MessageType::kHeartbeat: {
      if (!r.GetU64(&out->heartbeat_seq) ||
          !r.GetU64(&out->heartbeat_queries)) {
        return Truncated("heartbeat response");
      }
      break;
    }
    case MessageType::kBound: {
      if (!r.GetU32(&count) || !r.Plausible(count, 8)) {
        return Truncated("bound response");
      }
      out->bounds.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!r.GetF64(&out->bounds[i])) return Truncated("bound response");
      }
      // Settled (u32 id, f64 value) pairs: no peer sends any and none is
      // read, but the slot stays so older peers' frames still decode.
      if (!r.GetU32(&count) || !r.Plausible(count, 12)) {
        return Truncated("bound response");
      }
      r.Skip(static_cast<size_t>(count) * 12);
      break;
    }
    case MessageType::kStatus: {
      if (!GetWorkerInfo(&r, &out->worker_info) || !r.GetU32(&count) ||
          !r.Plausible(count, 58)) {
        return Truncated("status response");
      }
      out->workers.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        WireWorkerStatus& w = out->workers[i];
        if (!r.GetName(&w.address) || !r.GetU8(&w.state) ||
            !r.GetU32(&w.owned_begin) || !r.GetU32(&w.owned_end) ||
            !r.GetU64(&w.heartbeats) || !r.GetU64(&w.failures) ||
            !r.GetU64(&w.age_ms) || !r.GetU64(&w.rtt_count) ||
            !r.GetU64(&w.rtt_p50_ns) || !r.GetU64(&w.rtt_p99_ns)) {
          return Truncated("status response");
        }
      }
      WireDurability& d = out->durability;
      if (!r.GetU8(&d.flags) || !r.GetU64(&d.checkpoint_lsn) ||
          !r.GetU64(&d.last_lsn) || !r.GetU64(&d.replayed_batches) ||
          !r.GetU64(&d.recovery_ns)) {
        return Truncated("status response");
      }
      break;
    }
    case MessageType::kError:
      break;  // ok-status error frame: nothing further
  }
  if (!r.Done()) return Status::InvalidArgument("trailing response bytes");
  return Status::OK();
}

std::string WireStatsToJson(const WireStats& stats) {
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < stats.counters.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += "\"" + stats.counters[i].first +
           "\":" + std::to_string(stats.counters[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < stats.histograms.size(); ++i) {
    const WireHistogram& h = stats.histograms[i];
    if (i != 0) out.push_back(',');
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%llu,\"sum_ns\":%llu,\"p50_ns\":%llu,"
                  "\"p90_ns\":%llu,\"p99_ns\":%llu,\"max_ns\":%llu}",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum_ns),
                  static_cast<unsigned long long>(h.p50_ns),
                  static_cast<unsigned long long>(h.p90_ns),
                  static_cast<unsigned long long>(h.p99_ns),
                  static_cast<unsigned long long>(h.max_ns));
    out += buf;
  }
  out += "},\"traces\":[";
  for (size_t i = 0; i < stats.traces.size(); ++i) {
    const WireTrace& t = stats.traces[i];
    if (i != 0) out.push_back(',');
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "{\"op\":\"%s\",\"detail\":%llu,\"total_ms\":%.3f,"
                  "\"snapshot_version\":%llu,\"unix_ms\":%llu,"
                  "\"dropped_spans\":%u,\"spans\":[",
                  t.op.c_str(), static_cast<unsigned long long>(t.detail),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<unsigned long long>(t.snapshot_version),
                  static_cast<unsigned long long>(t.unix_ms),
                  t.dropped_spans);
    out += buf;
    for (size_t j = 0; j < t.spans.size(); ++j) {
      const WireSpan& s = t.spans[j];
      if (j != 0) out.push_back(',');
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"shard\":%d,\"start_us\":%.1f,"
                    "\"end_us\":%.1f}",
                    s.name.c_str(), s.shard,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns) / 1e3);
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string WireStatusToJson(const WireWorkerInfo& self,
                             const std::vector<WireWorkerStatus>& workers,
                             const WireDurability& durability) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"self\":{\"num_shards\":%u,\"owned_begin\":%u,"
                "\"owned_end\":%u,\"psi\":%.3f,\"num_facilities\":%u,"
                "\"users_total\":%llu},\"workers\":[",
                self.num_shards, self.owned_begin, self.owned_end, self.psi,
                self.num_facilities,
                static_cast<unsigned long long>(self.users_total));
  std::string out = buf;
  for (size_t i = 0; i < workers.size(); ++i) {
    const WireWorkerStatus& w = workers[i];
    if (i != 0) out.push_back(',');
    // Numeric WorkerRegistry::State values, rendered self-describing for
    // scrapers (the CI distributed-smoke job keys on these strings).
    const char* state = w.state == 1   ? "alive"
                        : w.state == 2 ? "dead"
                        : w.state == 0 ? "unregistered"
                                       : "unknown";
    std::snprintf(buf, sizeof(buf),
                  "{\"address\":\"%s\",\"state\":\"%s\",\"owned_begin\":%u,"
                  "\"owned_end\":%u,\"heartbeats\":%llu,\"failures\":%llu,"
                  "\"age_ms\":%llu,\"rtt_count\":%llu,\"rtt_p50_us\":%.1f,"
                  "\"rtt_p99_us\":%.1f}",
                  w.address.c_str(), state, w.owned_begin, w.owned_end,
                  static_cast<unsigned long long>(w.heartbeats),
                  static_cast<unsigned long long>(w.failures),
                  static_cast<unsigned long long>(w.age_ms),
                  static_cast<unsigned long long>(w.rtt_count),
                  static_cast<double>(w.rtt_p50_ns) / 1e3,
                  static_cast<double>(w.rtt_p99_ns) / 1e3);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"durability\":{\"durable\":%s,\"recovered\":%s,"
                "\"wal_torn_tail\":%s,\"checkpoint_lsn\":%llu,"
                "\"last_lsn\":%llu,\"replayed_batches\":%llu,"
                "\"recovery_ms\":%.3f}}",
                durability.durable() ? "true" : "false",
                durability.recovered() ? "true" : "false",
                durability.wal_torn_tail() ? "true" : "false",
                static_cast<unsigned long long>(durability.checkpoint_lsn),
                static_cast<unsigned long long>(durability.last_lsn),
                static_cast<unsigned long long>(durability.replayed_batches),
                static_cast<double>(durability.recovery_ns) / 1e6);
  out += buf;
  return out;
}

FrameAssembler::Result FrameAssembler::Next(std::string* payload) {
  // Compact the consumed prefix opportunistically so a long-lived pipelined
  // connection does not grow the buffer without bound.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10) && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Result::kNeedMore;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  if (len == 0 || len > max_frame_bytes_) return Result::kBad;
  if (buf_.size() - pos_ - kFrameHeaderBytes < len) return Result::kNeedMore;
  payload->assign(buf_, pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  return Result::kFrame;
}

}  // namespace tq::net
