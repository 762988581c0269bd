#include "obs/sched.h"

#include <string>

namespace tiamat::obs {

void SchedExporter::update() {
  using SchedStats = transport::LoopbackTransport::SchedStats;
  using WorkerSched = transport::LoopbackTransport::WorkerSched;

  SchedStats cur = transport_.sched_stats();
  for (std::size_t i = 0; i < cur.workers.size(); ++i) {
    const WorkerSched& w = cur.workers[i];
    const WorkerSched prev =
        i < prev_.workers.size() ? prev_.workers[i] : WorkerSched{};
    const Labels labels{{"worker", std::to_string(i)}};

    const std::uint64_t tasks = w.tasks - prev.tasks;
    registry_.counter("transport.sched.tasks", labels).add(tasks);
    registry_.counter("transport.sched.tombstones", labels)
        .add(w.tombstones - prev.tombstones);
    registry_.counter("transport.sched.cancels", labels)
        .add(w.cancels - prev.cancels);
    registry_.counter("transport.sched.inbox_wait_us", labels)
        .add(w.inbox_wait_us - prev.inbox_wait_us);

    registry_.gauge("transport.sched.queue_depth", labels)
        .set(static_cast<double>(w.queue_depth));
    registry_.gauge("transport.sched.queue_depth_max", labels)
        .set(static_cast<double>(w.queue_depth_max));
    registry_.gauge("transport.sched.strand_lag_max_us", labels)
        .set(static_cast<double>(w.lag_us_max));

    // Window shapes: lag averaged over the tasks of this window, busy time
    // as a fraction of the wall time this window spanned.
    const double lag_avg =
        tasks == 0 ? 0.0
                   : static_cast<double>(w.lag_us_sum - prev.lag_us_sum) /
                         static_cast<double>(tasks);
    registry_.gauge("transport.sched.strand_lag_avg_us", labels).set(lag_avg);

    const auto wall = static_cast<double>(cur.uptime_us - prev_.uptime_us);
    double util = wall <= 0.0 ? 0.0
                              : static_cast<double>(w.busy_us - prev.busy_us) /
                                    wall;
    if (util < 0.0) util = 0.0;
    if (util > 1.0) util = 1.0;
    registry_.gauge("transport.sched.utilization", labels).set(util);
  }
  registry_.counter("transport.sched.lock_wait_us")
      .add(cur.lock_wait_us - prev_.lock_wait_us);
  prev_ = std::move(cur);
}

}  // namespace tiamat::obs
