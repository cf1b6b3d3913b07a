// Live socket front ends (DESIGN.md §10, §12): a remote tap forwards raw
// captured frames to the serve process over UDP or TCP, framed as MLF1
// records:
//
//   offset  size  field
//   0       4     magic "MLF1"
//   4       4     link id        u32 LE   (HELLO: namespace token)
//   8       1     flags          bit0 = is_response, bit1 = FIN,
//                                bit2 = HELLO
//   9       1     reserved (0)
//   10      2     frame length   u16 LE   (FIN/HELLO: 0)
//   12      8     capture time   f64 LE   (HELLO: resume seq, u64 LE)
//   20      len   raw frame bytes
//
// UDP carries one record per datagram (malformed datagrams are counted and
// skipped — lossy transport, lossy policy); TCP carries a record stream per
// connection. Either transport ends cleanly on a FIN record; a TCP
// connection also ends on peer EOF.
//
// The TCP listener is a poll-driven acceptor managing up to `max_conns`
// concurrent connections (one plant tap each), every one with its own MLF1
// reassembly state, so a slow or dead tap never blocks the others. A
// framing error poisons only ITS connection (resynchronizing a byte stream
// is not reliable), counted in TapStats.
//
// Reconnect/resume: a connection may open with a HELLO record binding it to
// a numbered link NAMESPACE. Data-record link ids on a HELLO-bound
// connection are salted with the token (token 0 = the identity namespace:
// ids pass through unchanged), and the source tracks how many records each
// namespace has delivered. A tap that loses its connection reconnects,
// replays its stream from any point at or before the loss, and sends HELLO
// with the sequence number it resumes from — the source discards the
// already-delivered prefix, so the engine sees every record exactly once,
// in order, and the link re-enters the engine through the park→rejoin grow
// path with stream state intact. A connection that never sends HELLO keeps
// the historical single-tap semantics: pass-through link ids, no resume,
// and its EOF ends the source once no other connection or resumable
// namespace remains.
#pragma once

#include <poll.h>

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ingest/package_source.hpp"

namespace mlad::ingest {

inline constexpr std::size_t kRecordHeaderSize = 20;
inline constexpr std::uint8_t kRecordFlagResponse = 0x01;
inline constexpr std::uint8_t kRecordFlagFin = 0x02;
inline constexpr std::uint8_t kRecordFlagHello = 0x04;

/// Serialize one wire frame as an MLF1 record.
std::vector<std::uint8_t> encode_record(const ics::LinkFrame& lf);
/// The end-of-stream record (no payload).
std::vector<std::uint8_t> encode_fin();
/// The reconnect/resume handshake record: "this connection speaks for
/// namespace `token`; the first data record that follows is record number
/// `resume_seq` of that namespace's stream".
std::vector<std::uint8_t> encode_hello(std::uint32_t token,
                                       std::uint64_t resume_seq);

/// One decoded MLF1 record of any kind.
struct Record {
  enum class Kind { kData, kFin, kHello };
  Kind kind = Kind::kData;
  ics::LinkFrame frame;            ///< kData only
  std::uint32_t token = 0;         ///< kHello only
  std::uint64_t resume_seq = 0;    ///< kHello only
};

/// Parse exactly one record occupying the whole buffer (the UDP datagram
/// case). Returns false on any framing violation.
bool decode_record(std::span<const std::uint8_t> data, Record& out);

/// Data/FIN-only convenience (the historical signature): HELLO records are
/// rejected like any other non-wire content.
bool decode_record(std::span<const std::uint8_t> data, ics::LinkFrame& out,
                   bool& fin);

/// Engine link id for a record link inside a namespace. Token 0 is the
/// identity namespace (ids pass through); any other token owns the 16-bit
/// id block `token << 16`.
ics::LinkId salt_link(std::uint32_t token, std::uint32_t link);

/// Tap-health counters for the socket front ends (DESIGN.md §12): what was
/// retried, counted, or discarded on the way into the engine.
struct TapStats {
  std::uint64_t connections = 0;   ///< accepts (incl. reconnects)
  std::uint64_t reconnects = 0;    ///< HELLOs re-binding a known namespace
  std::uint64_t disconnects = 0;   ///< peer EOF/reset without FIN
  std::uint64_t malformed = 0;     ///< framing errors (poisoned connection)
  std::uint64_t truncated = 0;     ///< connection died mid-record
  std::uint64_t duplicates_discarded = 0;  ///< resume overlap records
  std::uint64_t records_lost = 0;  ///< resume gap (sender lost its tail)
  std::uint64_t rejected_conns = 0;  ///< accepts over max_conns
};

/// Shared socket plumbing: bind address, learned port, malformed counter.
class SocketSource : public PackageSource {
 public:
  ~SocketSource() override;

  /// The bound port — useful when constructed with port 0 (ephemeral).
  std::uint16_t port() const { return port_; }
  /// Records that failed framing checks and were dropped.
  std::uint64_t malformed() const { return malformed_; }

 protected:
  SocketSource() = default;
  SocketSource(const SocketSource&) = delete;
  SocketSource& operator=(const SocketSource&) = delete;

  /// socket() + bind() + getsockname(); throws std::runtime_error with the
  /// errno text on failure.
  void open(int type, const std::string& bind_addr, std::uint16_t port);
  void close_fd();

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t malformed_ = 0;
};

/// One MLF1 record per datagram. next() blocks in recvfrom until a valid
/// record arrives; a FIN datagram ends the source. HELLO datagrams bind the
/// sender-independent namespace used to salt subsequent link ids (datagram
/// transport has no connections, so there is nothing to resume — the
/// resume seq must be 0 and duplicates are not tracked).
class UdpSource final : public SocketSource {
 public:
  /// Binds immediately; port 0 picks an ephemeral port (see port()).
  /// The default loopback bind keeps a test/demo listener private; pass
  /// "0.0.0.0" to accept a remote tap.
  explicit UdpSource(std::uint16_t port,
                     const std::string& bind_addr = "127.0.0.1");

  bool next(ics::LinkFrame& out) override;

 private:
  bool done_ = false;
  std::uint32_t token_ = 0;
  std::vector<std::uint8_t> buf_;
};

/// Poll-driven multi-connection MLF1 stream listener (see the file
/// comment). next() blocks until some connection yields a data record, a
/// FIN record ends the run, or the last non-resumable connection closes.
class TcpSource final : public SocketSource {
 public:
  /// `max_conns` bounds concurrently-open connections; extra accepts are
  /// closed immediately (counted in TapStats::rejected_conns).
  /// `idle_timeout_ms` (0 = wait forever) ends the source when no
  /// connection is open and nothing arrives for that long — a safety net
  /// for resumable namespaces whose tap never comes back.
  explicit TcpSource(std::uint16_t port,
                     const std::string& bind_addr = "127.0.0.1",
                     std::size_t max_conns = 16, int idle_timeout_ms = 0);
  ~TcpSource() override;

  bool next(ics::LinkFrame& out) override;

  const TapStats& tap_stats() const { return tap_; }
  SourceHealth health() const override;

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> buf;  ///< unparsed reassembly bytes
    std::optional<std::uint32_t> token;  ///< HELLO-bound namespace
    std::uint64_t discard = 0;  ///< resume-overlap records still to drop
  };
  struct Namespace {
    std::uint64_t delivered = 0;  ///< records accepted so far
  };

  void accept_ready();
  /// The next free ready_ entry, grown only past the high-water mark.
  ics::LinkFrame& ready_slot();
  /// Drain readable bytes and parse complete records into ready_.
  /// Returns false when the connection must be dropped.
  bool service_conn(Conn& conn);
  /// Parse complete records out of conn.buf. False = poison the connection.
  bool parse_records(Conn& conn);
  void drop_conn(std::size_t index, bool expected_eof);
  void shut_down();  ///< FIN: close everything, keep ready_ poppable
  /// True while some open connection or resumable namespace justifies
  /// blocking for more input.
  bool live() const;

  std::vector<Conn> conns_;
  std::map<std::uint32_t, Namespace> namespaces_;
  /// Parsed frames [ready_pos_, ready_len_), handed out by swap: an entry
  /// takes the caller's old buffer back, and the next parse reuses it.
  std::vector<ics::LinkFrame> ready_;
  std::size_t ready_pos_ = 0;
  std::size_t ready_len_ = 0;
  std::vector<pollfd> pollfds_;  ///< reused across next() calls
  TapStats tap_;
  std::size_t max_conns_;
  int idle_timeout_ms_;
  bool done_ = false;
};

}  // namespace mlad::ingest
