#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace tq::net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Status NetClient::Connect(const std::string& host, uint16_t port) {
  if (connected()) return Status::AlreadyExists("already connected");
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &addrs);
  if (rc != 0) {
    return Status::IOError("getaddrinfo " + host + ": " +
                           ::gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    const int fd = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                            a->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      ApplyTimeout();
      break;
    }
    last = Errno("connect");
    ::close(fd);
  }
  ::freeaddrinfo(addrs);
  return connected() ? Status::OK() : last;
}

void NetClient::set_timeout_ms(uint64_t ms) {
  timeout_ms_ = ms;
  if (connected()) ApplyTimeout();
}

void NetClient::ApplyTimeout() {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms_ / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms_ % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  sendbuf_.clear();
  frames_ = FrameAssembler();
  pending_ = 0;
}

Status NetClient::Send(const NetRequest& request) {
  if (!connected()) return Status::InvalidArgument("not connected");
  EncodeRequest(request, &sendbuf_);
  ++pending_;
  return Status::OK();
}

Status NetClient::Flush() {
  if (!connected()) return Status::InvalidArgument("not connected");
  if (sendbuf_.empty()) return Status::OK();
  const Status st = WriteAll(sendbuf_.data(), sendbuf_.size());
  sendbuf_.clear();
  return st;
}

Status NetClient::Receive(NetResponse* response) {
  if (!connected()) return Status::InvalidArgument("not connected");
  if (pending_ == 0) {
    return Status::InvalidArgument("no request in flight");
  }
  TQ_RETURN_NOT_OK(Flush());
  std::string payload;
  TQ_RETURN_NOT_OK(ReadFrame(&payload));
  NetResponse r;  // decode fresh: a reused *response keeps no stale fields
  TQ_RETURN_NOT_OK(DecodeResponse(payload, &r));
  --pending_;
  *response = std::move(r);
  return Status::OK();
}

Status NetClient::Sum(const std::vector<FacilityId>& facilities,
                      NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::Sum(facilities)));
  return Receive(response);
}

Status NetClient::TopK(const std::vector<uint32_t>& ks,
                       NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::TopK(ks)));
  return Receive(response);
}

Status NetClient::Update(std::vector<std::vector<Point>> inserts,
                         std::vector<uint32_t> removes,
                         NetResponse* response) {
  TQ_RETURN_NOT_OK(
      Send(NetRequest::Update(std::move(inserts), std::move(removes))));
  return Receive(response);
}

Status NetClient::Stats(uint32_t max_traces, NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::Stats(max_traces)));
  return Receive(response);
}

Status NetClient::Register(NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::Register()));
  return Receive(response);
}

Status NetClient::Heartbeat(uint64_t seq, NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::Heartbeat(seq)));
  return Receive(response);
}

Status NetClient::Bound(uint32_t k, NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::Bound(k)));
  return Receive(response);
}

Status NetClient::ClusterStatus(NetResponse* response) {
  TQ_RETURN_NOT_OK(Send(NetRequest::ClusterStatus()));
  return Receive(response);
}

Status NetClient::WriteAll(const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status NetClient::ReadFrame(std::string* payload) {
  for (;;) {
    switch (frames_.Next(payload)) {
      case FrameAssembler::Result::kFrame:
        return Status::OK();
      case FrameAssembler::Result::kBad:
        return Status::IOError("unframeable response stream");
      case FrameAssembler::Result::kNeedMore:
        break;
    }
    char buf[64 << 10];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::IOError("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    frames_.Feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace tq::net
