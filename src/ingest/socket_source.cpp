#include "ingest/socket_source.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mlad::ingest {

namespace {

constexpr std::uint8_t kMagic[4] = {'M', 'L', 'F', '1'};

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double get_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(get_u64(p));
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

std::vector<std::uint8_t> encode_record(const ics::LinkFrame& lf) {
  if (lf.frame.bytes.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument("encode_record: frame exceeds 64 KiB");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kRecordHeaderSize + lf.frame.bytes.size());
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put_u32(out, lf.link);
  out.push_back(lf.frame.is_response ? kRecordFlagResponse : 0);
  out.push_back(0);  // reserved
  put_u16(out, static_cast<std::uint16_t>(lf.frame.bytes.size()));
  put_f64(out, lf.frame.timestamp);
  out.insert(out.end(), lf.frame.bytes.begin(), lf.frame.bytes.end());
  return out;
}

std::vector<std::uint8_t> encode_fin() {
  std::vector<std::uint8_t> out;
  out.reserve(kRecordHeaderSize);
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put_u32(out, 0);
  out.push_back(kRecordFlagFin);
  out.push_back(0);
  put_u16(out, 0);
  put_f64(out, 0.0);
  return out;
}

std::vector<std::uint8_t> encode_hello(std::uint32_t token,
                                       std::uint64_t resume_seq) {
  std::vector<std::uint8_t> out;
  out.reserve(kRecordHeaderSize);
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put_u32(out, token);
  out.push_back(kRecordFlagHello);
  out.push_back(0);
  put_u16(out, 0);
  put_u64(out, resume_seq);
  return out;
}

bool decode_record(std::span<const std::uint8_t> data, Record& out) {
  if (data.size() < kRecordHeaderSize) return false;
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) return false;
  const std::uint8_t flags = data[8];
  const std::uint16_t len = get_u16(data.data() + 10);
  if (flags & kRecordFlagFin) {
    out.kind = Record::Kind::kFin;
    return len == 0 && data.size() == kRecordHeaderSize;
  }
  if (flags & kRecordFlagHello) {
    out.kind = Record::Kind::kHello;
    out.token = get_u32(data.data() + 4);
    out.resume_seq = get_u64(data.data() + 12);
    return len == 0 && data.size() == kRecordHeaderSize;
  }
  if (data.size() != kRecordHeaderSize + len) return false;
  out.kind = Record::Kind::kData;
  out.frame.link = get_u32(data.data() + 4);
  out.frame.frame.is_response = (flags & kRecordFlagResponse) != 0;
  out.frame.frame.timestamp = get_f64(data.data() + 12);
  out.frame.frame.bytes.assign(data.begin() + kRecordHeaderSize, data.end());
  return true;
}

bool decode_record(std::span<const std::uint8_t> data, ics::LinkFrame& out,
                   bool& fin) {
  Record record;
  fin = false;
  if (!decode_record(data, record)) return false;
  if (record.kind == Record::Kind::kHello) return false;
  if (record.kind == Record::Kind::kFin) {
    fin = true;
    return true;
  }
  out = std::move(record.frame);
  return true;
}

ics::LinkId salt_link(std::uint32_t token, std::uint32_t link) {
  if (token == 0) return link;  // identity namespace
  return (token << 16) | (link & 0xffffu);
}

// ---- SocketSource -----------------------------------------------------------

SocketSource::~SocketSource() { close_fd(); }

void SocketSource::open(int type, const std::string& bind_addr,
                        std::uint16_t port) {
  fd_ = ::socket(AF_INET, type, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    close_fd();
    throw std::runtime_error("SocketSource: bad bind address " + bind_addr);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close_fd();
    throw_errno("bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    close_fd();
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

void SocketSource::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- UdpSource --------------------------------------------------------------

UdpSource::UdpSource(std::uint16_t port, const std::string& bind_addr) {
  open(SOCK_DGRAM, bind_addr, port);
  // Largest possible record: header + 64 KiB payload fits any datagram.
  buf_.resize(kRecordHeaderSize + std::numeric_limits<std::uint16_t>::max());
}

bool UdpSource::next(ics::LinkFrame& out) {
  while (!done_) {
    const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;  // a signal is not a dead tap
      throw_errno("recv");
    }
    Record record;
    if (!decode_record({buf_.data(), static_cast<std::size_t>(n)}, record)) {
      ++malformed_;
      continue;
    }
    switch (record.kind) {
      case Record::Kind::kData:
        record.frame.link = salt_link(token_, record.frame.link);
        out = std::move(record.frame);
        return true;
      case Record::Kind::kHello:
        // Datagram transport has no session to resume; HELLO only selects
        // the namespace salt for what follows.
        token_ = record.token;
        break;
      case Record::Kind::kFin:
        done_ = true;
        close_fd();
        return false;
    }
  }
  return false;
}

// ---- TcpSource --------------------------------------------------------------

TcpSource::TcpSource(std::uint16_t port, const std::string& bind_addr,
                     std::size_t max_conns, int idle_timeout_ms)
    : max_conns_(max_conns), idle_timeout_ms_(idle_timeout_ms) {
  if (max_conns_ == 0) {
    throw std::invalid_argument("TcpSource: max_conns must be > 0");
  }
  open(SOCK_STREAM, bind_addr, port);
  if (::listen(fd_, static_cast<int>(max_conns_)) < 0) {
    close_fd();
    throw_errno("listen");
  }
  set_nonblocking(fd_);
}

TcpSource::~TcpSource() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool TcpSource::live() const {
  if (!conns_.empty()) return true;
  // No open connection: keep listening only if some HELLO-bound namespace
  // may still reconnect and resume. A run that never used HELLO keeps the
  // historical semantics — last EOF is a clean end of the wire.
  return !namespaces_.empty();
}

void TcpSource::shut_down() {
  done_ = true;
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
  close_fd();
}

bool TcpSource::next(ics::LinkFrame& out) {
  for (;;) {
    if (ready_pos_ < ready_len_) {
      using std::swap;
      swap(out, ready_[ready_pos_++]);
      return true;
    }
    ready_pos_ = ready_len_ = 0;
    if (done_ || fd_ < 0) return false;
    if (conns_.empty() && tap_.connections > 0 && !live()) {
      // Every anonymous connection ended at a record boundary: clean end.
      shut_down();
      return false;
    }

    std::vector<pollfd>& fds = pollfds_;
    fds.clear();
    fds.push_back({fd_, POLLIN, 0});
    for (const Conn& conn : conns_) fds.push_back({conn.fd, POLLIN, 0});

    const int timeout = idle_timeout_ms_ > 0 ? idle_timeout_ms_ : -1;
    const int n = ::poll(fds.data(), fds.size(), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;  // a signal is not a dead tap
      throw_errno("poll");
    }
    if (n == 0) {
      // Idle timeout: nothing open (or nothing talking) for the grace
      // period — end the source instead of waiting forever for a tap that
      // is not coming back.
      if (conns_.empty()) {
        shut_down();
        return false;
      }
      continue;
    }

    if (fds[0].revents & POLLIN) accept_ready();
    // Service in ACCEPT order, draining each ready connection fully before
    // the next: a reconnecting tap's old connection is always earlier in
    // the list, so its buffered tail — and its EOF — are consumed before
    // the successor's HELLO runs the resume arithmetic. On loopback the
    // kernel guarantees that tail is already here (close() lands the data
    // before the successor's SYN); over a real network a sufficiently
    // large --resend overlap absorbs the race.
    std::size_t i = 0;
    for (std::size_t j = 1; j < fds.size() && i < conns_.size(); ++j) {
      if (fds[j].revents == 0) {
        ++i;
        continue;
      }
      if (!service_conn(conns_[i])) {
        const bool clean_eof = conns_[i].buf.empty();
        drop_conn(i, clean_eof);
        continue;  // the erase shifted the next connection into slot i
      }
      if (done_) break;  // FIN inside service_conn closed everything
      ++i;
    }
  }
}

void TcpSource::accept_ready() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;  // retry: a signal is not a dead tap
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw_errno("accept");
    }
    if (conns_.size() >= max_conns_) {
      ++tap_.rejected_conns;
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
    ++tap_.connections;
  }
}

ics::LinkFrame& TcpSource::ready_slot() {
  if (ready_len_ == ready_.size()) ready_.emplace_back();
  return ready_[ready_len_++];
}

bool TcpSource::service_conn(Conn& conn) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t r = ::read(conn.fd, chunk, sizeof(chunk));
    if (r < 0) {
      if (errno == EINTR) continue;  // retry: a signal is not a dead tap
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // connection error: drop it, keep serving the rest
    }
    if (r == 0) return false;  // peer EOF
    conn.buf.insert(conn.buf.end(), chunk, chunk + r);
    if (!parse_records(conn)) return false;
    if (done_) return true;  // FIN: everything already shut down
  }
}

bool TcpSource::parse_records(Conn& conn) {
  std::size_t pos = 0;
  const auto remaining = [&] { return conn.buf.size() - pos; };
  while (remaining() >= kRecordHeaderSize) {
    const std::uint8_t* header = conn.buf.data() + pos;
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
      // A byte stream cannot be resynchronized reliably after a framing
      // error; poison THIS connection and let the tap reconnect/resume.
      ++tap_.malformed;
      ++malformed_;
      return false;
    }
    const std::uint8_t flags = header[8];
    const std::uint16_t len = get_u16(header + 10);
    if (flags & kRecordFlagFin) {
      shut_down();
      return true;
    }
    if (flags & kRecordFlagHello) {
      const std::uint32_t token = get_u32(header + 4);
      const std::uint64_t resume = get_u64(header + 12);
      auto [it, inserted] = namespaces_.try_emplace(token);
      Namespace& ns = it->second;
      if (!inserted) ++tap_.reconnects;
      if (inserted) ns.delivered = resume;
      if (resume <= ns.delivered) {
        // The tap resends from at or before the delivered point: discard
        // the overlap so the engine sees each record exactly once.
        conn.discard = ns.delivered - resume;
      } else {
        // The tap lost its own tail (resumes past what we got): count the
        // gap; the stream continues from where the sender is.
        tap_.records_lost += resume - ns.delivered;
        ns.delivered = resume;
        conn.discard = 0;
      }
      conn.token = token;
      pos += kRecordHeaderSize;
      continue;
    }
    if (remaining() < kRecordHeaderSize + len) break;  // incomplete record
    if (conn.discard > 0) {
      // A resent duplicate: it was already counted in ns.delivered when it
      // was first handed to the engine, so only the discard budget moves.
      --conn.discard;
      ++tap_.duplicates_discarded;
      pos += kRecordHeaderSize + len;
      continue;
    }
    ics::LinkFrame& lf = ready_slot();
    lf.link = get_u32(header + 4);
    lf.frame.is_response = (flags & kRecordFlagResponse) != 0;
    lf.frame.timestamp = get_f64(header + 12);
    lf.frame.bytes.assign(header + kRecordHeaderSize,
                          header + kRecordHeaderSize + len);
    if (conn.token) {
      lf.link = salt_link(*conn.token, lf.link);
      ++namespaces_[*conn.token].delivered;
    }
    pos += kRecordHeaderSize + len;
  }
  conn.buf.erase(conn.buf.begin(),
                 conn.buf.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

void TcpSource::drop_conn(std::size_t index, bool expected_eof) {
  Conn& conn = conns_[index];
  if (!expected_eof) {
    // Died mid-record: the partial record is gone (its tap will resend it
    // after reconnecting with HELLO).
    ++tap_.truncated;
    ++malformed_;
  }
  ++tap_.disconnects;
  if (conn.fd >= 0) ::close(conn.fd);
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(index));
}

SourceHealth TcpSource::health() const {
  SourceHealth h;
  h.malformed = tap_.malformed;
  h.truncated = tap_.truncated;
  h.connections = tap_.connections;
  h.reconnects = tap_.reconnects;
  h.duplicates_discarded = tap_.duplicates_discarded;
  h.records_lost = tap_.records_lost;
  return h;
}

}  // namespace mlad::ingest
