// Discrete-event kernel: ordering, FIFO tie-breaking, clock semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace ibsec::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    SimTime t;
    q.pop(t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    SimTime t;
    q.pop(t)();
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  q.schedule(100, [] {});
  q.schedule(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
  EXPECT_EQ(q.size(), 2u);
}

// The reference order: a std::set keyed on (time, seq, id), where seq is
// the order in which the test handed events to the queue (one per schedule
// or reserve_seq call, as the queue numbers them). Any correct queue pops
// exactly this sequence, ids and all, not merely the same times.
using Reference = std::set<std::tuple<SimTime, std::uint64_t, int>>;

TEST(EventQueue, PopOrderStress) {
  // Thousands of events with heavy time collisions: every pop must be the
  // reference's earliest entry, nothing lost.
  EventQueue q;
  Rng rng(0xC0FFEE);
  constexpr int kEvents = 5000;
  Reference reference;
  std::vector<int> popped_ids;
  for (int id = 0; id < kEvents; ++id) {
    const auto t = static_cast<SimTime>(rng.uniform(64));  // many ties
    reference.emplace(t, static_cast<std::uint64_t>(id), id);
    q.schedule(t, [&popped_ids, id] { popped_ids.push_back(id); });
  }
  auto expect = reference.begin();
  while (!q.empty()) {
    SimTime t;
    auto fn = q.pop(t);
    ASSERT_TRUE(fn != nullptr);
    ASSERT_NE(expect, reference.end());
    ASSERT_EQ(t, std::get<0>(*expect));
    fn();
    ASSERT_EQ(popped_ids.back(), std::get<2>(*expect));
    ++expect;
  }
  EXPECT_EQ(expect, reference.end());
  EXPECT_EQ(popped_ids.size(), static_cast<std::size_t>(kEvents));
}

/// Drives a Simulator with random traffic and mirrors every schedule in a
/// Reference. Events schedule more events from inside their callbacks, a
/// third of them at the running instant; some places are reserved and only
/// filled through schedule_as after later same-time schedules; runs stop
/// at run_until boundaries. Each callback checks it is the reference's
/// earliest entry.
class ReferenceDriver {
 public:
  explicit ReferenceDriver(std::uint64_t seed) : rng_(seed) {}

  void schedule(SimTime when) {
    const int id = next_id_++;
    reference_.emplace(when, seq_++, id);
    sim_.at(when, [this, id] { fire(id); });
  }

  /// Reserves a place at `when`; fill_pending() turns it into an event.
  void reserve(SimTime when) {
    const int id = next_id_++;
    const std::uint64_t seq = sim_.reserve_seq(when);
    EXPECT_EQ(seq, seq_);
    reference_.emplace(when, seq_++, id);
    pending_.push_back({when, seq, id});
  }

  void fill_pending() {
    for (const Reserved& r : pending_) {
      ASSERT_FALSE(sim_.reached(r.when, r.seq));
      sim_.schedule_as(r.when, r.seq, [this, id = r.id] { fire(id); });
    }
    pending_.clear();
  }

  void run_until(SimTime end) {
    fill_pending();
    sim_.run_until(end);
    EXPECT_EQ(sim_.now(), end);
    ASSERT_TRUE(reference_.empty() || std::get<0>(*reference_.begin()) > end)
        << "an event due by " << end << " did not run";
  }

  void drain() {
    fill_pending();
    sim_.run();
    EXPECT_TRUE(reference_.empty());
  }

  std::uint64_t fired() const { return fired_; }

 private:
  struct Reserved {
    SimTime when;
    std::uint64_t seq;
    int id;
  };

  void fire(int id) {
    ASSERT_FALSE(reference_.empty());
    const auto [time, seq, want] = *reference_.begin();
    ASSERT_EQ(id, want) << "popped out of (time, seq) order at " << time;
    ASSERT_EQ(sim_.now(), time);
    reference_.erase(reference_.begin());
    ++fired_;
    // Under one child per event on average, so the traffic dies out.
    if (rng_.uniform(8) == 0) {
      reserve(sim_.now() + static_cast<SimTime>(rng_.uniform(3)));
    }
    const std::uint64_t roll = rng_.uniform(8);
    for (std::uint64_t n = roll < 3 ? 0 : roll < 7 ? 1 : 2; n > 0; --n) {
      const SimTime dt = rng_.uniform(3) == 0
                             ? 0
                             : static_cast<SimTime>(rng_.uniform(40));
      schedule(sim_.now() + dt);
    }
    // The reserved place is filled after the schedules above, some of
    // them at the same instant, yet pops ahead of them.
    fill_pending();
  }

  Simulator sim_;
  Rng rng_;
  Reference reference_;
  std::vector<Reserved> pending_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::uint64_t fired_ = 0;
};

TEST(EventQueue, PopOrderStressInterleavedWithPops) {
  // Mixed schedule/pop traffic, the pattern the simulator drives: bursts
  // of external schedules with heavy ties, reentrant schedules and reserved
  // places filled late, drained in slices by run_until.
  ReferenceDriver driver(42);
  Rng rng(7);
  SimTime end = 0;
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t pushes = 20 + rng.uniform(80);
    for (std::uint64_t i = 0; i < pushes; ++i) {
      if (i == pushes / 2) {
        driver.reserve(end + static_cast<SimTime>(rng.uniform(8)));
      }
      driver.schedule(end + static_cast<SimTime>(rng.uniform(200)));
    }
    end += static_cast<SimTime>(rng.uniform(150));  // sometimes 0
    driver.run_until(end);
    if (testing::Test::HasFatalFailure()) return;
  }
  driver.drain();
  EXPECT_GT(driver.fired(), 5000u);
}

TEST(EventQueue, ReservedSeqPopsInItsReservedPlace) {
  // A place reserved between two same-time events and filled only later
  // pops between them, ahead of same-time events scheduled after it.
  EventQueue q;
  std::string order;
  q.schedule(10, [&] { order += 'A'; });
  const std::uint64_t r = q.reserve_seq();
  q.schedule(10, [&] { order += 'B'; });
  q.schedule(5, [&] { order += 'x'; });
  q.schedule_as(10, r, [&] { order += 'R'; });
  q.schedule(10, [&] { order += 'C'; });
  while (!q.empty()) {
    SimTime t;
    q.pop(t)();
  }
  EXPECT_EQ(order, "xARBC");
}

TEST(Simulator, ScheduleAsFillsAReservedPlaceFromALaterEvent) {
  Simulator sim;
  std::string order;
  sim.at(10, [&] { order += 'A'; });
  const std::uint64_t r = sim.reserve_seq(10);
  sim.at(10, [&] { order += 'B'; });
  sim.at(5, [&] {
    EXPECT_FALSE(sim.reached(10, r));
    sim.schedule_as(10, r, [&] { order += 'R'; });
    sim.after(5, [&] { order += 'C'; });  // same instant, scheduled later
  });
  sim.run();
  EXPECT_EQ(order, "ARBC");
  EXPECT_TRUE(sim.reached(10, r));
}

TEST(Simulator, ReachedFollowsTheRunningEvent) {
  Simulator sim;
  const std::uint64_t before = sim.reserve_seq(10);
  sim.at(10, [&] {
    EXPECT_TRUE(sim.reached(10, before));  // reserved ahead of this event
    const std::uint64_t after = sim.reserve_seq(10);
    EXPECT_FALSE(sim.reached(10, after));  // would run after this one
    EXPECT_FALSE(sim.reached(11, before));
  });
  EXPECT_FALSE(sim.reached(10, before));
  sim.run();
}

TEST(Simulator, RunEndsAtTheLatestReservedPlace) {
  // A reserved place counts as an event for the clock: run() leaves it
  // where running that event would have, and run_until() stops short of
  // places past its end.
  Simulator sim;
  sim.at(10, [] {});
  const std::uint64_t r = sim.reserve_seq(50);
  sim.run_until(30);
  EXPECT_EQ(sim.now(), 30);
  EXPECT_FALSE(sim.reached(50, r));
  sim.run();
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(sim.reached(50, r));
  const std::uint64_t later = sim.reserve_seq(50);
  EXPECT_FALSE(sim.reached(50, later));  // reserved after the run ended
}

TEST(SimulatorDeathTest, ScheduleAsBeforeTheRunningEventDies) {
  Simulator sim;
  const std::uint64_t r = sim.reserve_seq(10);
  sim.at(10, [&] { sim.schedule_as(10, r, [] {}); });
  EXPECT_DEATH(sim.run(), "IBSEC_CHECK failed");
}

TEST(SimulatorDeathTest, ScheduleAsInThePastDies) {
  Simulator sim;
  const std::uint64_t r = sim.reserve_seq(20);
  sim.at(30, [&] { sim.schedule_as(20, r, [] {}); });
  EXPECT_DEATH(sim.run(), "IBSEC_CHECK failed");
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.at(123, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 123);
  EXPECT_EQ(sim.now(), 123);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.at(100, [&] {
    times.push_back(sim.now());
    sim.after(50, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{100, 150}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);  // events at exactly the boundary run
  EXPECT_EQ(sim.now(), 20);
  sim.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100);  // clock advances to the horizon
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.at(100, [&] {
    sim.at(50, [&] { seen = sim.now(); });  // in the past -> now
  });
  sim.run();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, CascadingEventsSameTime) {
  // An event scheduling another event at the same instant runs it before
  // later times.
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] {
    order.push_back(1);
    sim.after(0, [&] { order.push_back(2); });
  });
  sim.at(11, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, DeterministicInterleaving) {
  // Two runs of the same program produce identical event interleavings.
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      sim.at(i % 10, [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ibsec::sim
