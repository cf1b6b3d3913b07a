// Replay buffer (adapt/replay_buffer.hpp): bounded memory, per-link
// fairness, and bit-determinism of the seeded reservoir — the properties
// the online-adaptation subsystem's replayable-runs guarantee rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapt/replay_buffer.hpp"

namespace mlad::adapt {
namespace {

/// A tiny tagged window: one step whose target identifies (link, index).
nn::Fragment window(std::size_t tag) {
  nn::Fragment f;
  f.inputs.clear(1);
  f.inputs.end_row();
  f.targets.push_back(tag);
  return f;
}

std::vector<std::size_t> tags(const ReplayBuffer& buf) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    out.push_back(buf.window(i).targets.front());
  }
  return out;
}

TEST(ReplayBuffer, CapacityIsAHardBound) {
  ReplayBuffer buf(10, 0, 7);
  for (std::size_t i = 0; i < 200; ++i) buf.push(0, window(i));
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.held(0), 10u);
  EXPECT_EQ(buf.offered(), 200u);
}

TEST(ReplayBuffer, ReservoirKeepsOldAndNewWindows) {
  // Algorithm R over one link: the held set should span the whole history,
  // not just the newest windows (and with this seed it must keep at least
  // one early and one late window — deterministic, so no flake).
  ReplayBuffer buf(8, 0, 42);
  for (std::size_t i = 0; i < 400; ++i) buf.push(3, window(i));
  bool has_early = false;
  bool has_late = false;
  for (const std::size_t t : tags(buf)) {
    has_early |= t < 200;
    has_late |= t >= 200;
  }
  EXPECT_TRUE(has_early) << "reservoir degenerated to a recency buffer";
  EXPECT_TRUE(has_late) << "reservoir stopped accepting new windows";
}

TEST(ReplayBuffer, DeterministicGivenSeedAndPushSequence) {
  const auto run = [] {
    ReplayBuffer buf(12, 0, 99);
    for (std::size_t i = 0; i < 300; ++i) {
      buf.push(static_cast<ics::LinkId>(i % 3), window(i));
    }
    return tags(buf);
  };
  EXPECT_EQ(run(), run());
}

TEST(ReplayBuffer, ChattyLinkCannotCrowdOutALateJoiner) {
  // Link 0 fills the whole buffer; when link 1 starts talking, the fair
  // share (capacity / links_seen) rebalances toward an even split.
  ReplayBuffer buf(12, 0, 5);
  for (std::size_t i = 0; i < 120; ++i) buf.push(0, window(i));
  EXPECT_EQ(buf.held(0), 12u);
  for (std::size_t i = 0; i < 120; ++i) buf.push(1, window(1000 + i));
  EXPECT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf.held(1), 6u) << "late joiner did not reach its fair share";
  EXPECT_EQ(buf.held(0), 6u);
}

TEST(ReplayBuffer, FairSharesAcrossManyLinks) {
  ReplayBuffer buf(12, 0, 5);
  for (std::size_t round = 0; round < 60; ++round) {
    for (ics::LinkId link = 0; link < 4; ++link) {
      buf.push(link, window(round * 4 + link));
    }
  }
  EXPECT_EQ(buf.size(), 12u);
  for (ics::LinkId link = 0; link < 4; ++link) {
    EXPECT_EQ(buf.held(link), 3u) << "link " << link;
  }
}

TEST(ReplayBuffer, ExplicitPerLinkQuotaCaps) {
  ReplayBuffer buf(12, 2, 5);
  for (std::size_t i = 0; i < 50; ++i) buf.push(0, window(i));
  EXPECT_EQ(buf.held(0), 2u);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(ReplayBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(ReplayBuffer(0, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::adapt
