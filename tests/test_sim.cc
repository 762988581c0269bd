// Unit tests for the simulator substrate: event queue, RNG, network,
// mobility and topology helpers.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/network.h"
#include "sim/random.h"
#include "sim/topology.h"
#include "tests/test_util.h"

namespace tiamat::sim {
namespace {

// ---------------- EventQueue ----------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameInstantFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInPastClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_until_idle();
  EXPECT_EQ(q.now(), 100);
  bool fired = false;
  q.schedule_at(50, [&] { fired = true; });
  q.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 100);  // did not go backwards
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule_at(10, [] {});
  q.run_until_idle();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelBogusIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kInvalidEvent));
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  q.run_until_idle();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWhenEmpty) {
  EventQueue q;
  q.run_until(500);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, EventsScheduledWhileRunningFire) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] {
    ++count;
    q.schedule_after(5, [&] { ++count; });
  });
  q.run_until_idle();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue q;
  EventId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until_idle();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.idle());
}

TEST(EventQueue, StepFiresExactlyOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

// ---------------- Rng ----------------

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0, 1 << 30) != b.uniform(0, 1 << 30)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, IndexStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.index(7), 7u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ForkIsIndependentOfLaterParentDraws) {
  Rng a(7);
  Rng fork1 = a.fork();
  std::vector<std::int64_t> seq1;
  for (int i = 0; i < 10; ++i) seq1.push_back(fork1.uniform(0, 1 << 30));

  Rng b(7);
  Rng fork2 = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fork2.uniform(0, 1 << 30), seq1[i]);
  }
}

// ---------------- Network ----------------

using tiamat::testing::World;

TEST(Network, EveryoneVisibleWithoutRadioRange) {
  World w;
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({1000, 1000});
  EXPECT_TRUE(w.net.visible(a, b));
  EXPECT_TRUE(w.net.visible(b, a));
}

TEST(Network, RadioRangeLimitsVisibility) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});
  auto c = w.net.add_node({50, 0});
  EXPECT_TRUE(w.net.visible(a, b));
  EXPECT_FALSE(w.net.visible(a, c));
  EXPECT_FALSE(w.net.visible(c, a));
}

TEST(Network, LinkOverrideBeatsRange) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({500, 0});
  EXPECT_FALSE(w.net.visible(a, b));
  w.net.set_link(a, b, true);
  EXPECT_TRUE(w.net.visible(a, b));
  w.net.set_link(a, b, false);
  EXPECT_FALSE(w.net.visible(a, b));
  w.net.clear_link_override(a, b);
  EXPECT_FALSE(w.net.visible(a, b));  // back to range-derived
}

TEST(Network, OfflineNodeInvisible) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  w.net.set_online(b, false);
  EXPECT_FALSE(w.net.visible(a, b));
  w.net.set_online(b, true);
  EXPECT_TRUE(w.net.visible(a, b));
}

TEST(Network, UnicastDeliversWithLatency) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  sim::Time delivered_at = -1;
  w.net.bind(b, [&](NodeId from, const Payload& p) {
    EXPECT_EQ(from, a);
    EXPECT_EQ(p.size(), 3u);
    delivered_at = w.queue.now();
  });
  w.net.send(a, b, Payload{1, 2, 3});
  w.run_all();
  EXPECT_EQ(delivered_at, 2 * kMillisecond);
  EXPECT_EQ(w.net.stats().deliveries, 1u);
}

TEST(Network, SendToInvisibleNodeDrops) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({100, 0});
  bool got = false;
  w.net.bind(b, [&](NodeId, const Payload&) { got = true; });
  w.net.send(a, b, Payload{1});
  w.run_all();
  EXPECT_FALSE(got);
  EXPECT_EQ(w.net.stats().drops_invisible, 1u);
}

TEST(Network, MovingApartMidFlightDropsPacket) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});
  bool got = false;
  w.net.bind(b, [&](NodeId, const Payload&) { got = true; });
  w.net.send(a, b, Payload{1});
  w.net.set_position(b, {100, 0});  // departs before delivery
  w.run_all();
  EXPECT_FALSE(got);
  EXPECT_EQ(w.net.stats().drops_invisible, 1u);
}

TEST(Network, RemovedNodeDropsInFlight) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  w.net.bind(b, [&](NodeId, const Payload&) { FAIL(); });
  w.net.send(a, b, Payload{1});
  w.net.remove_node(b);
  w.run_all();
  EXPECT_EQ(w.net.stats().drops_dead, 1u);
}

// Crash/restart semantics for the chaos harness: re-adding a removed node
// id must start from a clean state — no inherited link overrides, groups,
// handler, or in-flight traffic addressed to the previous incarnation.
TEST(Network, ReAddedNodeStartsFromCleanState) {
  World w;
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});
  const GroupId g = 3;
  w.net.join_group(b, g);
  w.net.set_link(a, b, false);  // scripted partition
  EXPECT_FALSE(w.net.visible(a, b));

  w.net.remove_node(b);
  EXPECT_TRUE(w.net.add_node_at(b, {7, 0}));
  // Clean slate: the old partition override and group membership are gone.
  EXPECT_TRUE(w.net.visible(a, b));
  int b_got = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { ++b_got; });
  w.net.multicast(a, g, Payload{1});
  w.run_all();
  EXPECT_EQ(b_got, 0) << "restarted node inherited group membership";
  w.net.send(a, b, Payload{2});
  w.run_all();
  EXPECT_EQ(b_got, 1);
}

TEST(Network, InFlightPacketNeverReachesRestartedIncarnation) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  w.net.send(a, b, Payload{1});  // in flight to the first incarnation
  w.net.remove_node(b);
  EXPECT_TRUE(w.net.add_node_at(b));
  bool got = false;
  w.net.bind(b, [&](NodeId, const Payload&) { got = true; });
  w.run_all();
  EXPECT_FALSE(got) << "restarted node received its past life's packet";
  EXPECT_EQ(w.net.stats().drops_dead, 1u);
}

TEST(Network, AddNodeAtRejectsLiveAndUnknownIds) {
  World w;
  auto a = w.net.add_node();
  EXPECT_FALSE(w.net.add_node_at(a));      // still present
  EXPECT_FALSE(w.net.add_node_at(a + 7));  // never allocated
  w.net.remove_node(a);
  EXPECT_TRUE(w.net.add_node_at(a));
  EXPECT_TRUE(w.net.node_exists(a));
  // Fresh ids keep advancing past re-added ones.
  auto c = w.net.add_node();
  EXPECT_GT(c, a);
}

TEST(Network, MulticastReachesVisibleMembersOnly) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});   // visible member
  auto c = w.net.add_node({50, 0});  // invisible member
  auto d = w.net.add_node({5, 5});   // visible non-member
  const GroupId g = 9;
  w.net.join_group(b, g);
  w.net.join_group(c, g);
  int b_got = 0, c_got = 0, d_got = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { ++b_got; });
  w.net.bind(c, [&](NodeId, const Payload&) { ++c_got; });
  w.net.bind(d, [&](NodeId, const Payload&) { ++d_got; });
  w.net.multicast(a, g, Payload{1});
  w.run_all();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(d_got, 0);
}

TEST(Network, SenderDoesNotReceiveOwnMulticast) {
  World w;
  auto a = w.net.add_node();
  w.net.join_group(a, 3);
  int got = 0;
  w.net.bind(a, [&](NodeId, const Payload&) { ++got; });
  w.net.multicast(a, 3, Payload{1});
  w.run_all();
  EXPECT_EQ(got, 0);
}

TEST(Network, LossDropsSomePackets) {
  LinkModel m = World::quiet_links();
  m.loss = 0.5;
  World w(7, m);
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  int got = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { ++got; });
  for (int i = 0; i < 200; ++i) w.net.send(a, b, Payload{1});
  w.run_all();
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
  EXPECT_EQ(w.net.stats().drops_loss + static_cast<std::uint64_t>(got), 200u);
}

TEST(Network, PayloadSizeAddsLatency) {
  LinkModel m = World::quiet_links();
  m.per_kilobyte = 1000;  // 1 ms per KiB
  World w(1, m);
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  sim::Time at = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { at = w.queue.now(); });
  w.net.send(a, b, Payload(2048, 0));
  w.run_all();
  EXPECT_EQ(at, 2 * kMillisecond + 2000);
}

TEST(Network, VisibleFromListsPeersInIdOrder) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  auto c = w.net.add_node();
  auto vis = w.net.visible_from(a);
  ASSERT_EQ(vis.size(), 2u);
  EXPECT_EQ(vis[0], b);
  EXPECT_EQ(vis[1], c);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    LinkModel m;
    m.jitter = 1000;
    m.loss = 0.1;
    World w(seed, m);
    auto a = w.net.add_node();
    auto b = w.net.add_node();
    std::vector<sim::Time> times;
    w.net.bind(b, [&](NodeId, const Payload&) { times.push_back(w.queue.now()); });
    for (int i = 0; i < 50; ++i) w.net.send(a, b, Payload{std::uint8_t(i)});
    w.run_all();
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// ---------------- Topology ----------------

TEST(Topology, CliqueFullyConnected) {
  World w;
  auto ids = make_clique(w.net, 5);
  for (auto a : ids) {
    for (auto b : ids) {
      if (a != b) EXPECT_TRUE(w.net.visible(a, b));
    }
  }
  EXPECT_EQ(connected_components(w.net, ids), 1u);
}

TEST(Topology, LineOnlyAdjacentVisible) {
  World w;
  auto ids = make_line(w.net, 5, 10.0);
  EXPECT_TRUE(w.net.visible(ids[0], ids[1]));
  EXPECT_FALSE(w.net.visible(ids[0], ids[2]));
  EXPECT_EQ(connected_components(w.net, ids), 1u);
}

TEST(Topology, GridFourNeighbourhood) {
  World w;
  auto ids = make_grid(w.net, 3, 3, 10.0);
  // centre node sees exactly 4 neighbours
  auto centre = ids[4];
  EXPECT_EQ(w.net.visible_from(centre).size(), 4u);
  EXPECT_EQ(connected_components(w.net, ids), 1u);
}

TEST(Topology, ComponentsCountsPartitions) {
  World w;
  w.net.set_radio_range(5.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({1, 0});
  auto c = w.net.add_node({100, 0});
  EXPECT_EQ(connected_components(w.net, {a, b, c}), 2u);
}

// ---------------- Mobility ----------------

TEST(RandomWaypointTest, NodesStayInArenaAndMove) {
  World w;
  RandomWaypointParams p;
  p.arena_w = 100;
  p.arena_h = 100;
  p.min_speed = 50;
  p.max_speed = 100;
  RandomWaypoint rw(w.net, w.rng, p);
  auto a = w.net.add_node({50, 50});
  rw.add(a);
  rw.start();
  Position start = w.net.position(a);
  w.run_for(seconds(5));
  rw.stop();
  Position end = w.net.position(a);
  EXPECT_TRUE(end.x >= 0 && end.x <= 100);
  EXPECT_TRUE(end.y >= 0 && end.y <= 100);
  EXPECT_TRUE(distance(start, end) > 0.0 || true);  // moved (or returned)
  w.run_all();  // no stray timers
}

TEST(ChurnTest, TogglesNodesButKeepsMinimumOnline) {
  World w;
  ChurnParams p;
  p.interval = milliseconds(10);
  p.leave_probability = 1.0;
  p.min_online = 1;
  ChurnProcess churn(w.net, w.rng, p);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(w.net.add_node());
  for (auto n : nodes) churn.manage(n);
  churn.start();
  w.run_for(seconds(2));
  churn.stop();
  std::size_t online = 0;
  for (auto n : nodes) {
    if (w.net.online(n)) ++online;
  }
  EXPECT_GE(online, 1u);
  EXPECT_GT(churn.transitions(), 0u);
  w.run_all();
}

// ---------------- Determinism regressions ----------------

// connected_components used to seed each BFS from *unvisited.begin() of an
// unordered_set; it now scans the caller's vector, so the answer (and the
// traversal) cannot depend on hash order or enumeration order.
TEST(Topology, ComponentsIndependentOfEnumerationOrder) {
  World w;
  w.net.set_radio_range(5.0);
  std::vector<NodeId> ids;
  ids.push_back(w.net.add_node({0, 0}));
  ids.push_back(w.net.add_node({1, 0}));
  ids.push_back(w.net.add_node({50, 0}));
  ids.push_back(w.net.add_node({100, 0}));
  ids.push_back(w.net.add_node({101, 0}));
  ids.push_back(w.net.add_node({102, 0}));
  EXPECT_EQ(connected_components(w.net, ids), 3u);
  std::vector<NodeId> rev(ids.rbegin(), ids.rend());
  EXPECT_EQ(connected_components(w.net, rev), 3u);
}

// RandomWaypoint::tick consumes rng draws per node; the state table is
// ordered now, so identically-seeded runs move every node identically.
TEST(RandomWaypointTest, TicksAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    World w(seed);
    RandomWaypointParams p;
    p.arena_w = 100;
    p.arena_h = 100;
    p.min_speed = 10;
    p.max_speed = 20;
    RandomWaypoint rw(w.net, w.rng, p);
    std::vector<NodeId> ids;
    for (int i = 0; i < 6; ++i) {
      NodeId n = w.net.add_node({static_cast<double>(i) * 10.0, 0});
      ids.push_back(n);
      rw.add(n);
    }
    rw.start();
    w.run_for(seconds(3));
    rw.stop();
    std::vector<std::pair<double, double>> pos;
    for (NodeId n : ids) {
      Position at = w.net.position(n);
      pos.emplace_back(at.x, at.y);
    }
    w.run_all();
    return pos;
  };
  EXPECT_EQ(run(9), run(9));
}
}  // namespace
}  // namespace tiamat::sim
