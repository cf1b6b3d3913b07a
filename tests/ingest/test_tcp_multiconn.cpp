// Multi-connection TcpSource (ingest/socket_source.hpp, DESIGN.md §12):
// the poll-driven listener serves several concurrent taps, each in its own
// HELLO-declared link namespace, with per-connection MLF1 reassembly. The
// contracts under test:
//  (a) concurrent tokened taps land in disjoint namespaces, each preserving
//      its own wire order exactly;
//  (b) a tap that dies mid-record reconnects and resumes with overlap, and
//      the engine-facing stream is still exactly-once, in order (the
//      overlap is discarded, the loss and duplicate counters balance);
//  (c) a resume past the delivered point is a counted gap, not a hang;
//  (d) accepts beyond max_conns are rejected without disturbing the
//      established tap;
//  (e) a framing error poisons ONLY its connection — other taps keep
//      flowing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "ingest/socket_source.hpp"

namespace mlad::ingest {
namespace {

std::vector<ics::LinkFrame> tap_wire(std::uint32_t stamp, std::size_t n) {
  std::vector<ics::LinkFrame> wire;
  for (std::uint32_t i = 0; i < n; ++i) {
    ics::LinkFrame lf;
    lf.link = i % 2;
    lf.frame.timestamp = static_cast<double>(stamp) + 0.1 * i;
    lf.frame.is_response = (i % 2) == 1;
    lf.frame.bytes.assign(6 + i % 5, static_cast<std::uint8_t>(stamp + i));
    wire.push_back(std::move(lf));
  }
  return wire;
}

std::vector<ics::LinkFrame> drain(PackageSource& source) {
  std::vector<ics::LinkFrame> out;
  ics::LinkFrame lf;
  while (source.next(lf)) out.push_back(lf);
  return out;
}

/// Frames of `got` belonging to `token`'s namespace, link ids un-salted.
std::vector<ics::LinkFrame> in_namespace(std::vector<ics::LinkFrame> got,
                                         std::uint32_t token) {
  std::vector<ics::LinkFrame> out;
  for (auto& lf : got) {
    if ((lf.link >> 16) == token) {
      lf.link &= 0xffffu;
      out.push_back(std::move(lf));
    }
  }
  return out;
}

void expect_same_wire(const std::vector<ics::LinkFrame>& got,
                      const std::vector<ics::LinkFrame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].link, want[i].link) << "frame " << i;
    EXPECT_EQ(got[i].frame, want[i].frame) << "frame " << i;
  }
}

/// Minimal blocking loopback client for driving the listener.
class TapClient {
 public:
  explicit TapClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
        0);
  }
  ~TapClient() { close(); }

  void send(const std::vector<std::uint8_t>& bytes, std::size_t limit = 0) {
    const std::size_t n = limit == 0 ? bytes.size() : limit;
    ASSERT_EQ(::send(fd_, bytes.data(), n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }
  /// send() to a listener that may already have dropped this connection:
  /// the bytes go out whole, or the send fails with a peer-closed error
  /// (EPIPE, ECONNRESET) and returns false.
  bool send_unless_dropped(const std::vector<std::uint8_t>& bytes) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      const int err = errno;
      EXPECT_TRUE(err == EPIPE || err == ECONNRESET) << std::strerror(err);
      return false;
    }
    EXPECT_EQ(n, static_cast<ssize_t>(bytes.size()));
    return true;
  }
  void send_wire(const std::vector<ics::LinkFrame>& wire, std::size_t from,
                 std::size_t count) {
    for (std::size_t i = from; i < from + count; ++i) {
      send(encode_record(wire[i]));
    }
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(SaltLink, TokenZeroIsIdentityOthersOwnABlock) {
  EXPECT_EQ(salt_link(0, 7u), 7u);
  EXPECT_EQ(salt_link(0, 0xdeadbeefu), 0xdeadbeefu);
  EXPECT_EQ(salt_link(3, 7u), (3u << 16) | 7u);
  // A link id over 16 bits cannot leak into a neighbouring namespace.
  EXPECT_EQ(salt_link(3, 0x1FffFu), (3u << 16) | 0xffffu);
}

TEST(TcpMultiConn, ConcurrentTokenedTapsLandInDisjointNamespaces) {
  TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/16,
                   /*idle_timeout_ms=*/200);
  const auto wire1 = tap_wire(100, 12);
  const auto wire2 = tap_wire(200, 9);
  const auto wire3 = tap_wire(300, 15);

  std::vector<std::thread> senders;
  for (const auto* w : {&wire1, &wire2, &wire3}) {
    const std::uint32_t token =
        static_cast<std::uint32_t>(senders.size()) + 1;
    senders.emplace_back([&, w, token, port = source.port()] {
      TapClient tap(port);
      tap.send(encode_hello(token, 0));
      // Interleave across taps for real: dribble with tiny pauses.
      for (std::size_t i = 0; i < w->size(); ++i) {
        tap.send(encode_record((*w)[i]));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      tap.close();  // clean EOF; the idle timeout ends the source
    });
  }

  const auto got = drain(source);
  for (auto& t : senders) t.join();

  EXPECT_EQ(got.size(), wire1.size() + wire2.size() + wire3.size());
  expect_same_wire(in_namespace(got, 1), wire1);
  expect_same_wire(in_namespace(got, 2), wire2);
  expect_same_wire(in_namespace(got, 3), wire3);
  const TapStats& tap = source.tap_stats();
  EXPECT_EQ(tap.connections, 3u);
  EXPECT_EQ(tap.disconnects, 3u);
  EXPECT_EQ(tap.reconnects, 0u);
  EXPECT_EQ(tap.malformed, 0u);
  EXPECT_EQ(tap.records_lost, 0u);
}

TEST(TcpMultiConn, ReconnectResumeIsExactlyOnceInOrder) {
  TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/16,
                   /*idle_timeout_ms=*/200);
  const auto wire = tap_wire(100, 20);
  constexpr std::uint32_t kToken = 7;

  std::thread sender([&, port = source.port()] {
    {
      TapClient tap(port);
      tap.send(encode_hello(kToken, 0));
      tap.send_wire(wire, 0, 10);
      // Die mid-record: half of record 10 goes out, then an abrupt close.
      const auto partial = encode_record(wire[10]);
      tap.send(partial, partial.size() / 2);
    }
    // Reconnect, resume from record 8: records 8 and 9 are overlap the
    // listener must discard; 10 onward are fresh.
    TapClient tap(port);
    tap.send(encode_hello(kToken, 8));
    tap.send_wire(wire, 8, wire.size() - 8);
  });

  const auto got = drain(source);
  sender.join();

  expect_same_wire(in_namespace(got, kToken), wire);
  const TapStats& tap = source.tap_stats();
  EXPECT_EQ(tap.connections, 2u);
  EXPECT_EQ(tap.reconnects, 1u);
  EXPECT_EQ(tap.truncated, 1u);
  EXPECT_EQ(tap.duplicates_discarded, 2u);
  EXPECT_EQ(tap.records_lost, 0u);
}

TEST(TcpMultiConn, ResumePastDeliveredIsACountedGapNotAHang) {
  TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/16,
                   /*idle_timeout_ms=*/200);
  const auto wire = tap_wire(100, 12);
  constexpr std::uint32_t kToken = 5;

  std::thread sender([&, port = source.port()] {
    {
      TapClient tap(port);
      tap.send(encode_hello(kToken, 0));
      tap.send_wire(wire, 0, 5);
    }
    // The tap lost records 5..7 on its side; it resumes from 8.
    TapClient tap(port);
    tap.send(encode_hello(kToken, 8));
    tap.send_wire(wire, 8, 4);
  });

  const auto got = drain(source);
  sender.join();

  const auto ns = in_namespace(got, kToken);
  ASSERT_EQ(ns.size(), 9u);  // 0..4 and 8..11
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ns[i].frame, wire[i].frame) << "frame " << i;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ns[5 + i].frame, wire[8 + i].frame) << "frame " << 8 + i;
  }
  EXPECT_EQ(source.tap_stats().records_lost, 3u);
  EXPECT_EQ(source.tap_stats().reconnects, 1u);
  EXPECT_EQ(source.tap_stats().duplicates_discarded, 0u);
}

TEST(TcpMultiConn, AcceptsOverMaxConnsAreRejected) {
  TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/1,
                   /*idle_timeout_ms=*/0);
  const auto wire = tap_wire(100, 3);

  std::thread sender([&, port = source.port()] {
    TapClient established(port);
    established.send(encode_record(wire[0]));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      // Over the connection budget: accepted then immediately closed; its
      // record must never reach the engine.
      TapClient rejected(port);
      rejected.send(encode_record(wire[1]));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    established.send(encode_record(wire[2]));
    established.send(encode_fin());
  });

  const auto got = drain(source);
  sender.join();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].frame, wire[0].frame);
  EXPECT_EQ(got[1].frame, wire[2].frame);
  EXPECT_EQ(source.tap_stats().rejected_conns, 1u);
  EXPECT_EQ(source.tap_stats().connections, 1u);
}

TEST(TcpMultiConn, FramingErrorPoisonsOnlyItsConnection) {
  TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/16,
                   /*idle_timeout_ms=*/200);
  const auto wire_bad = tap_wire(100, 8);
  const auto wire_good = tap_wire(200, 8);

  std::thread bad([&, port = source.port()] {
    TapClient tap(port);
    tap.send(encode_hello(1, 0));
    tap.send_wire(wire_bad, 0, 2);
    tap.send({0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD,
              0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF});
    // Poisoned: anything after the garbage must be ignored. The source may
    // drop the connection before these sends, so they may fail, but only
    // as sends to a closed peer.
    for (std::size_t i = 2; i < 4; ++i) {
      if (!tap.send_unless_dropped(encode_record(wire_bad[i]))) break;
    }
  });
  std::thread good([&, port = source.port()] {
    TapClient tap(port);
    tap.send(encode_hello(2, 0));
    for (std::size_t i = 0; i < wire_good.size(); ++i) {
      tap.send(encode_record(wire_good[i]));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const auto got = drain(source);
  bad.join();
  good.join();

  // The good tap's stream is complete and untouched.
  expect_same_wire(in_namespace(got, 2), wire_good);
  // The bad tap delivered only what preceded the garbage.
  const auto bad_ns = in_namespace(got, 1);
  ASSERT_EQ(bad_ns.size(), 2u);
  EXPECT_GE(source.tap_stats().malformed, 1u);
}

}  // namespace
}  // namespace mlad::ingest
