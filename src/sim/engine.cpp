#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>

#include "core/clock.hpp"
#include "core/event_queue.hpp"
#include "sim/solve_memo.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace bwshare::sim {

double SimResult::average_penalty() const {
  double total = 0.0;
  size_t count = 0;
  for (const auto& c : comms) {
    if (c.background || c.aborted) continue;  // not the measured job's story
    total += c.penalty;
    ++count;
  }
  if (count == 0) return 1.0;
  return total / static_cast<double>(count);
}

double SimResult::task_comm_time(TaskId t) const {
  BWS_CHECK(t >= 0 && t < static_cast<TaskId>(tasks.size()),
            "task out of range");
  return tasks[static_cast<size_t>(t)].send_blocked_seconds;
}

bool bit_identical(const SimResult& a, const SimResult& b) {
  if (a.makespan != b.makespan) return false;
  if (a.aborted_comms != b.aborted_comms) return false;
  if (a.background_comms != b.background_comms) return false;
  if (a.background_skipped != b.background_skipped) return false;
  if (a.comms.size() != b.comms.size()) return false;
  for (size_t i = 0; i < a.comms.size(); ++i) {
    const CommRecord& x = a.comms[i];
    const CommRecord& y = b.comms[i];
    if (x.src_task != y.src_task || x.dst_task != y.dst_task ||
        x.src_node != y.src_node || x.dst_node != y.dst_node ||
        x.bytes != y.bytes || x.send_post != y.send_post ||
        x.recv_post != y.recv_post || x.start != y.start ||
        x.finish != y.finish || x.penalty != y.penalty ||
        x.sender_time != y.sender_time || x.background != y.background ||
        x.aborted != y.aborted) {
      return false;
    }
  }
  if (a.tasks.size() != b.tasks.size()) return false;
  for (size_t t = 0; t < a.tasks.size(); ++t) {
    const TaskStats& x = a.tasks[t];
    const TaskStats& y = b.tasks[t];
    if (x.finish_time != y.finish_time ||
        x.compute_seconds != y.compute_seconds ||
        x.send_blocked_seconds != y.send_blocked_seconds ||
        x.recv_blocked_seconds != y.recv_blocked_seconds ||
        x.barrier_wait_seconds != y.barrier_wait_seconds ||
        x.sends != y.sends || x.recvs != y.recvs) {
      return false;
    }
  }
  return true;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class TaskState { kReady, kComputing, kSendBlocked, kRecvBlocked,
                       kWaitAll, kBarrier, kDone };

struct PendingSend {
  TaskId src = 0;
  uint64_t order = 0;   // global posting order (any-source matching)
  double bytes = 0.0;
  double post_time = 0.0;
  bool rendezvous = false;
  bool tracked = false;  // posted via kIsend; completes a WaitAll request
  size_t record = 0;     // index into result.comms
};

struct PendingRecv {
  TaskId peer = kAnySource;
  uint64_t order = 0;
  double bytes = 0.0;
  double post_time = 0.0;
  bool nonblocking = false;  // posted via kIrecv
};

/// One in-flight transfer, stored in a stable slot. `remaining` is only
/// valid as of `advance_time` — bytes are integrated lazily, when the
/// transfer's component is next touched (docs/PERFORMANCE.md).
///
/// Deliberately trivially copyable: slots are recycled with a plain
/// assignment and completion snapshots the struct by value, so any owning
/// member here would put an allocation on the per-event path. The provider
/// coupling keys (the one variable-length attribute) live in the engine's
/// parallel `slot_keys_` side storage, whose vectors keep their capacity
/// across slot reuse.
struct Transfer {
  size_t record = 0;
  TaskId src = 0;
  TaskId dst = 0;
  topo::NodeId src_node = 0;
  topo::NodeId dst_node = 0;
  double remaining = 0.0;     // bytes left, as of advance_time
  double advance_time = 0.0;  // sim time `remaining` refers to
  double rate = 0.0;
  double finish_pred = kInf;  // advance_time + remaining / rate
  bool rendezvous = false;
  bool src_tracked = false;      // sender posted via kIsend
  bool dst_nonblocking = false;  // receiver posted via kIrecv
  bool background = false;       // task-less injected flow; src/dst unused
  bool alive = false;
  int component = -1;
  /// Entry in the finish-time queue. Stable across component
  /// dissolve/regroup — only a re-solve that changes finish_pred
  /// re-keys it, and only completion erases it.
  core::EventHandle qh = core::kNullEventHandle;
};
static_assert(std::is_trivially_copyable_v<Transfer>,
              "Transfer is snapshotted by value on the hot path");

/// Per-thread solve scratch: the component's induced communication graph
/// plus the memo path's rate buffers. One instance per thread (pool workers
/// included) so parallel component solves never share or allocate — the
/// graph and vectors keep their capacity across solves.
struct SolveScratch {
  graph::CommGraph sub;
  std::vector<double> memo_rates;
  std::vector<double> memo_verify;
};

SolveScratch& solve_scratch() {
  thread_local SolveScratch scratch;
  return scratch;
}

/// A connected component of the coupling structure over active transfers:
/// two transfers belong together iff they share an endpoint node or a
/// provider coupling key (transitively). `nodes`/`keys` record the
/// ownership entries this component asserted, so freeing it can clear
/// exactly those slots of the flat owner arrays. Component objects are
/// pooled (free_components_) with their vectors' capacity retained, so
/// dissolve/regroup cycles stop allocating once warmed.
struct Component {
  std::vector<size_t> members;  // alive transfer slots
  std::vector<topo::NodeId> nodes;
  std::vector<int> keys;
  bool alive = false;
  bool dirty = false;
  /// A member was removed since the component was last clean. Only a
  /// shrunken component can split, so only these need the dissolve/regroup
  /// pass at the next flush; a component that merely grew keeps its grouping
  /// (attach_transfer materialized any merges eagerly) and just has its
  /// members' byte counts advanced — the same instant a dissolve would have.
  bool shrunk = false;
};

/// One scripted scenario event, merged from Scenario::churn and
/// Scenario::background in declaration order. Replayed off a dedicated
/// core::EventQueue keyed by (time, script index) — the same sequence under
/// every SolveMode, with or without cross_check.
struct ScriptEvent {
  enum class Kind { kJoin, kLeave, kFail, kFlow };
  Kind kind = Kind::kFlow;
  double time = 0.0;
  int node = 0;        // membership events
  int src = 0;         // kFlow
  int dst = 0;         // kFlow
  double bytes = 0.0;  // kFlow
};

class Engine {
 public:
  Engine(const AppTrace& trace, const topo::ClusterSpec& cluster,
         const Placement& placement, const flowsim::RateProvider& provider,
         const Scenario& scenario, const EngineConfig& config)
      : trace_(trace),
        cluster_(cluster),
        placement_(placement),
        provider_(provider),
        cfg_(config) {
    BWS_CHECK(placement_.num_tasks() == trace_.num_tasks(),
              "placement task count must match the trace");
    for (int t = 0; t < trace_.num_tasks(); ++t)
      BWS_CHECK(placement_.node_of(t) < cluster_.num_nodes(),
                "placement references a node outside the cluster");
    const int n = trace_.num_tasks();
    state_.assign(static_cast<size_t>(n), TaskState::kReady);
    pc_.assign(static_cast<size_t>(n), 0);
    ready_at_.assign(static_cast<size_t>(n), 0.0);
    blocked_since_.assign(static_cast<size_t>(n), 0.0);
    result_.tasks.assign(static_cast<size_t>(n), TaskStats{});
    pending_sends_.resize(static_cast<size_t>(n));
    pending_recvs_.resize(static_cast<size_t>(n));
    // A first unmatched post would otherwise buy each queue's capacity-1
    // buffer mid-replay — a first-touch allocation tail that trickles on for
    // as long as fresh (task, direction) pairs keep appearing. Paying all of
    // them here keeps the steady-state loop allocation-free.
    for (auto& q : pending_sends_) q.reserve(1);
    for (auto& q : pending_recvs_) q.reserve(1);
    outstanding_requests_.assign(static_cast<size_t>(n), 0);
    // One record per send is known up front; background flows may push a few
    // more, but reserving the floor keeps the replay free of the geometric
    // regrowth memcpy over what is by far the engine's largest result array.
    result_.comms.reserve(trace_.total_sends());

    node_owner_.assign(static_cast<size_t>(cluster_.num_nodes()), -1);
    node_up_.assign(static_cast<size_t>(cluster_.num_nodes()), true);
    for (const int v : scenario.down_at_start)
      node_up_[static_cast<size_t>(v)] = false;
    job_of_ = scenario.job_of;
    if (job_of_.empty()) job_of_.assign(static_cast<size_t>(n), 0);
    int num_jobs = 1;
    for (const int j : job_of_) num_jobs = std::max(num_jobs, j + 1);
    job_size_.assign(static_cast<size_t>(num_jobs), 0);
    for (const int j : job_of_) ++job_size_[static_cast<size_t>(j)];
    job_barrier_arrivals_.assign(static_cast<size_t>(num_jobs), 0);

    // Merge the scenario scripts into one queue; churn events precede
    // background flows at equal times (seq order below).
    script_.reserve(scenario.churn.size() + scenario.background.size());
    for (const auto& ev : scenario.churn) {
      ScriptEvent se;
      se.kind = ev.kind == graph::ChurnKind::kJoin ? ScriptEvent::Kind::kJoin
                : ev.kind == graph::ChurnKind::kLeave
                    ? ScriptEvent::Kind::kLeave
                    : ScriptEvent::Kind::kFail;
      se.time = ev.time;
      se.node = ev.node;
      script_.push_back(se);
    }
    for (const auto& f : scenario.background) {
      ScriptEvent se;
      se.kind = ScriptEvent::Kind::kFlow;
      se.time = f.time;
      se.src = f.src;
      se.dst = f.dst;
      se.bytes = f.bytes;
      script_.push_back(se);
    }
    for (size_t i = 0; i < script_.size(); ++i)
      script_q_.push(script_[i].time, static_cast<uint64_t>(i), i);
  }

  SimResult run() {
    // Drive every task as far as it can go, then hop to the next event.
    for (TaskId t = 0; t < trace_.num_tasks(); ++t) advance_task(t);
    while (num_done_ < trace_.num_tasks()) {
      // Flush point: solve every component the last event cascade dirtied,
      // before any prediction below is read. The clock has not moved since
      // they turned dirty, so deferring the solves to here is unobservable.
      flush_refresh();
      // A predicted finish can sit in the past (a barrier cost overshot
      // it); the transfer then completes, late, at the current time.
      const double next_compute =
          compute_q_.empty() ? kInf : std::max(compute_q_.top_time(), now());
      const double next_transfer =
          transfer_q_.empty() ? kInf
                              : std::max(transfer_q_.top_time(), now());
      // Scenario scripts ride their own queue; like a predicted finish, a
      // scripted time can sit in the past after a barrier cost overshot it.
      const double next_script =
          script_q_.empty() ? kInf : std::max(script_q_.top_time(), now());
      if (cfg_.cross_check) {
        // cross_check (c): the heap's next-event times must match the
        // reference scans exactly, at every event.
        BWS_CHECK(earliest_compute_end() == next_compute,
                  strformat("event queue diverged from scan on the next "
                            "compute wake-up: heap %.17g vs scan %.17g at "
                            "t=%.9g",
                            next_compute, earliest_compute_end(), now()));
        BWS_CHECK(earliest_transfer_end() == next_transfer,
                  strformat("event queue diverged from scan on the next "
                            "completion: heap %.17g vs scan %.17g at t=%.9g",
                            next_transfer, earliest_transfer_end(), now()));
      }
      const double next = std::min({next_compute, next_transfer, next_script});
      BWS_CHECK(next < kInf, deadlock_message());
      BWS_CHECK(next <= cfg_.max_time, "simulation exceeded max_time");
      BWS_ASSERT(dirty_.empty(), "clock advanced past an unflushed component");
      clock_.advance_to(next);
      // Script events fire first at equal times: a failure at t aborts
      // transfers before a same-t completion is chosen.
      if (next_script <= next) {
        process_script_event();
      } else if (next_transfer <= next_compute) {
        complete_one_transfer();
      } else {
        wake_computers();
      }
    }
    result_.makespan = now();
    for (TaskId t = 0; t < trace_.num_tasks(); ++t)
      result_.tasks[static_cast<size_t>(t)].finish_time =
          std::max(result_.tasks[static_cast<size_t>(t)].finish_time, 0.0);
    return std::move(result_);
  }

 private:
  [[nodiscard]] double now() const { return clock_.now(); }

  // --- task stepping -------------------------------------------------------

  /// Put `t` to sleep until `until` (a compute burst, or modelled receive
  /// latency): the state bookkeeping plus the wake-up queue entry. A
  /// computing task owns exactly one compute_q_ entry, popped when it wakes
  /// — nothing ever re-keys it.
  void begin_compute(TaskId t, double until) {
    state_[static_cast<size_t>(t)] = TaskState::kComputing;
    ready_at_[static_cast<size_t>(t)] = until;
    compute_q_.push(until, static_cast<uint64_t>(t), t);
  }

  void advance_task(TaskId t) {
    auto& st = state_[static_cast<size_t>(t)];
    while (st == TaskState::kReady) {
      const auto& program = trace_.program(t);
      if (pc_[static_cast<size_t>(t)] >= program.size()) {
        st = TaskState::kDone;
        ++num_done_;
        result_.tasks[static_cast<size_t>(t)].finish_time = now();
        return;
      }
      const Event& e = program[pc_[static_cast<size_t>(t)]++];
      switch (e.kind) {
        case EventKind::kCompute:
          begin_compute(t, now() + e.seconds);
          result_.tasks[static_cast<size_t>(t)].compute_seconds += e.seconds;
          return;
        case EventKind::kSend:
          post_send(t, e, /*nonblocking=*/false);
          return;  // state set inside (may stay kReady for eager)
        case EventKind::kIsend:
          post_send(t, e, /*nonblocking=*/true);
          // The send may have completed the task's program synchronously
          // (eager path advances); stop if the state moved on.
          if (st != TaskState::kReady) return;
          break;
        case EventKind::kRecv:
          post_recv(t, e, /*nonblocking=*/false);
          return;
        case EventKind::kIrecv:
          post_recv(t, e, /*nonblocking=*/true);
          break;  // task stays ready; loop continues
        case EventKind::kWaitAll:
          if (outstanding_requests_[static_cast<size_t>(t)] > 0) {
            st = TaskState::kWaitAll;
            blocked_since_[static_cast<size_t>(t)] = now();
            return;
          }
          break;  // nothing outstanding: fall through to the next event
        case EventKind::kBarrier:
          arrive_barrier(t);
          return;
      }
    }
  }

  void post_send(TaskId t, const Event& e, bool nonblocking) {
    auto& stats = result_.tasks[static_cast<size_t>(t)];
    ++stats.sends;
    const bool rendezvous = !nonblocking && e.bytes >= cfg_.eager_threshold;

    CommRecord rec;
    rec.src_task = t;
    rec.dst_task = e.peer;
    rec.src_node = placement_.node_of(t);
    rec.dst_node = placement_.node_of(e.peer);
    rec.bytes = e.bytes;
    rec.send_post = now();
    result_.comms.push_back(rec);
    const size_t record = result_.comms.size() - 1;

    PendingSend ps;
    ps.src = t;
    ps.order = next_order_++;
    ps.bytes = e.bytes;
    ps.post_time = now();
    ps.rendezvous = rendezvous;
    ps.tracked = nonblocking;
    ps.record = record;

    if (rendezvous) {
      state_[static_cast<size_t>(t)] = TaskState::kSendBlocked;
      blocked_since_[static_cast<size_t>(t)] = now();
    } else {
      state_[static_cast<size_t>(t)] = TaskState::kReady;
      if (nonblocking) ++outstanding_requests_[static_cast<size_t>(t)];
    }

    // Try to match an already-posted receive at the destination.
    auto& recvs = pending_recvs_[static_cast<size_t>(e.peer)];
    for (auto it = recvs.begin(); it != recvs.end(); ++it) {
      if (it->peer == kAnySource || it->peer == t) {
        result_.comms[record].recv_post = it->post_time;
        const bool dst_nonblocking = it->nonblocking;
        recvs.erase(it);
        start_transfer(ps, e.peer, dst_nonblocking);
        if (!rendezvous && !nonblocking) advance_task(t);
        return;
      }
    }
    pending_sends_[static_cast<size_t>(e.peer)].push_back(ps);
    if (!rendezvous && !nonblocking) advance_task(t);
  }

  void post_recv(TaskId t, const Event& e, bool nonblocking) {
    auto& stats = result_.tasks[static_cast<size_t>(t)];
    ++stats.recvs;
    if (nonblocking) {
      ++outstanding_requests_[static_cast<size_t>(t)];
    } else {
      state_[static_cast<size_t>(t)] = TaskState::kRecvBlocked;
      blocked_since_[static_cast<size_t>(t)] = now();
    }

    // Match the earliest pending send addressed to us (by posting order).
    auto& sends = pending_sends_[static_cast<size_t>(t)];
    auto best = sends.end();
    for (auto it = sends.begin(); it != sends.end(); ++it) {
      if (e.peer != kAnySource && it->src != e.peer) continue;
      if (best == sends.end() || it->order < best->order) best = it;
    }
    if (best != sends.end()) {
      PendingSend ps = *best;
      sends.erase(best);
      result_.comms[ps.record].recv_post = now();
      start_transfer(ps, t, nonblocking);
      return;
    }
    PendingRecv pr;
    pr.peer = e.peer;
    pr.order = next_order_++;
    pr.bytes = e.bytes;
    pr.post_time = now();
    pr.nonblocking = nonblocking;
    pending_recvs_[static_cast<size_t>(t)].push_back(pr);
  }

  void arrive_barrier(TaskId t) {
    state_[static_cast<size_t>(t)] = TaskState::kBarrier;
    blocked_since_[static_cast<size_t>(t)] = now();
    // Barriers synchronize within a job: co-scheduled jobs never wait on
    // each other's barriers (with a single job this is the global barrier).
    const int job = job_of_[static_cast<size_t>(t)];
    ++job_barrier_arrivals_[static_cast<size_t>(job)];
    if (job_barrier_arrivals_[static_cast<size_t>(job)] <
        job_size_[static_cast<size_t>(job)])
      return;
    // The whole job arrived: release it. In-flight transfers are untouched —
    // their byte counts advance lazily when their component is next
    // refreshed.
    job_barrier_arrivals_[static_cast<size_t>(job)] = 0;
    for (TaskId u = 0; u < trace_.num_tasks(); ++u) {
      if (job_of_[static_cast<size_t>(u)] != job) continue;
      if (state_[static_cast<size_t>(u)] != TaskState::kBarrier) continue;
      result_.tasks[static_cast<size_t>(u)].barrier_wait_seconds +=
          now() - blocked_since_[static_cast<size_t>(u)];
      state_[static_cast<size_t>(u)] = TaskState::kReady;
    }
    // Flush point: the barrier cost is about to advance the clock, so any
    // component a completion dirtied earlier in this event must re-solve
    // now — its members would otherwise integrate bytes across the cost
    // interval at stale rates.
    flush_refresh();
    BWS_ASSERT(dirty_.empty(), "clock advanced past an unflushed component");
    clock_.advance_by(cfg_.barrier_cost);
    for (TaskId u = 0; u < trace_.num_tasks(); ++u)
      if (state_[static_cast<size_t>(u)] == TaskState::kReady) advance_task(u);
  }

  // --- transfers -----------------------------------------------------------

  /// Integrate the bytes `tr` moved since its last advance. Clamped at zero:
  /// a transfer can overshoot its end when a barrier cost pushes `now()` past
  /// its predicted finish; it then completes (late) at the current time.
  void advance(Transfer& tr) {
    if (now() > tr.advance_time && tr.rate > 0.0)
      tr.remaining =
          std::max(0.0, tr.remaining - tr.rate * (now() - tr.advance_time));
    tr.advance_time = now();
  }

  size_t alloc_slot() {
    size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      transfers_.emplace_back();
      slot_keys_.emplace_back();
      slot = transfers_.size() - 1;
    }
    transfers_[slot] = Transfer{};
    slot_keys_[slot].clear();  // keeps capacity for the next key set
    return slot;
  }

  /// Fetch the provider's coupling keys for a fresh transfer into its slot's
  /// side storage. Providers without extra coupling return an empty vector
  /// (no allocation); with coupling the capacity retained in slot_keys_ is
  /// replaced by the returned vector's.
  void set_slot_keys(size_t slot) {
    const Transfer& tr = transfers_[slot];
    slot_keys_[slot] = provider_.coupling_keys(tr.src_node, tr.dst_node);
  }

  void start_transfer(const PendingSend& ps, TaskId dst,
                      bool dst_nonblocking) {
    const size_t slot = alloc_slot();
    Transfer& tr = transfers_[slot];
    tr.record = ps.record;
    tr.src = ps.src;
    tr.dst = dst;
    tr.src_node = placement_.node_of(ps.src);
    tr.dst_node = placement_.node_of(dst);
    tr.remaining = std::max(ps.bytes, 1.0);  // 0-length still costs latency
    tr.advance_time = now();
    tr.rendezvous = ps.rendezvous;
    tr.src_tracked = ps.tracked;
    tr.dst_nonblocking = dst_nonblocking;
    tr.alive = true;
    set_slot_keys(slot);
    // The finish-time index entry lives as long as the transfer does; the
    // next flush re-keys it to the first real prediction.
    tr.qh = transfer_q_.push(kInf, static_cast<uint64_t>(tr.record), slot);
    result_.comms[ps.record].start = now();
    ++num_active_;
    attach_transfer(slot);
  }

  // --- scenario scripts ----------------------------------------------------

  /// Pop and apply the next scripted event. One event per main-loop turn, so
  /// a flush point separates every pair of same-time script events.
  void process_script_event() {
    BWS_ASSERT(!script_q_.empty(), "no script event pending");
    const size_t idx = script_q_.top();
    script_q_.pop();
    const ScriptEvent& ev = script_[idx];
    switch (ev.kind) {
      case ScriptEvent::Kind::kJoin:
        node_up_[static_cast<size_t>(ev.node)] = true;
        break;
      case ScriptEvent::Kind::kLeave:
        // Graceful departure: stop admitting background flows, but let the
        // node's in-flight transfers drain.
        node_up_[static_cast<size_t>(ev.node)] = false;
        break;
      case ScriptEvent::Kind::kFail:
        node_up_[static_cast<size_t>(ev.node)] = false;
        fail_node(ev.node);
        break;
      case ScriptEvent::Kind::kFlow:
        inject_background(ev);
        break;
    }
  }

  /// Crash semantics: every in-flight transfer with an endpoint on the
  /// failed node aborts at the event time, in posting (record) order so the
  /// cascade is independent of slot reuse.
  void fail_node(int node) {
    aborting_.clear();
    for (size_t s = 0; s < transfers_.size(); ++s) {
      const Transfer& tr = transfers_[s];
      if (tr.alive && (tr.src_node == static_cast<topo::NodeId>(node) ||
                       tr.dst_node == static_cast<topo::NodeId>(node)))
        aborting_.push_back(s);
    }
    std::sort(aborting_.begin(), aborting_.end(), [&](size_t a, size_t b) {
      return transfers_[a].record < transfers_[b].record;
    });
    // abort_transfer can cascade into new transfers (an unblocked task may
    // post its next send), but new slots are never aborted: the snapshot
    // above fixes the victim set at the failure instant.
    for (const size_t s : aborting_) abort_transfer(s);
  }

  /// Mirror of complete_one_transfer for a transfer cut short by a node
  /// failure: keep the partial byte count in the record, unblock both
  /// endpoints immediately (the failure is observed with no delivery
  /// latency), and leave the dirtied components for the next flush.
  void abort_transfer(size_t slot) {
    advance(transfers_[slot]);
    const Transfer tr = transfers_[slot];
    detach_transfer(slot);

    auto& rec = result_.comms[tr.record];
    rec.aborted = true;
    rec.finish = now();
    const double ref = reference_duration(rec);
    rec.penalty = ref > 0.0 ? (rec.finish - rec.start) / ref : 1.0;
    ++result_.aborted_comms;

    if (tr.background) return;
    if (tr.rendezvous) {
      auto& stats = result_.tasks[static_cast<size_t>(tr.src)];
      rec.sender_time = now() - rec.send_post;
      stats.send_blocked_seconds +=
          now() - blocked_since_[static_cast<size_t>(tr.src)];
      state_[static_cast<size_t>(tr.src)] = TaskState::kReady;
    } else {
      rec.sender_time = 0.0;
    }
    if (tr.src_tracked) retire_request(tr.src, /*latency=*/0.0);
    if (tr.dst_nonblocking) {
      retire_request(tr.dst, /*latency=*/0.0);
    } else {
      auto& stats = result_.tasks[static_cast<size_t>(tr.dst)];
      stats.recv_blocked_seconds +=
          now() - blocked_since_[static_cast<size_t>(tr.dst)];
      state_[static_cast<size_t>(tr.dst)] = TaskState::kReady;
    }

    if (state_[static_cast<size_t>(tr.src)] == TaskState::kReady)
      advance_task(tr.src);
    if (state_[static_cast<size_t>(tr.dst)] == TaskState::kReady)
      advance_task(tr.dst);
  }

  /// Admit one background flow: a task-less transfer that contends for
  /// nodes/coupling keys like any other active-set member but blocks nobody.
  /// Flows touching a down node are dropped (counted, not queued).
  void inject_background(const ScriptEvent& ev) {
    if (!node_up_[static_cast<size_t>(ev.src)] ||
        !node_up_[static_cast<size_t>(ev.dst)]) {
      ++result_.background_skipped;
      return;
    }
    CommRecord rec;
    rec.src_task = kAnySource;  // -1: no task on either side
    rec.dst_task = kAnySource;
    rec.src_node = static_cast<topo::NodeId>(ev.src);
    rec.dst_node = static_cast<topo::NodeId>(ev.dst);
    rec.bytes = ev.bytes;
    rec.send_post = now();
    rec.recv_post = now();
    rec.start = now();
    rec.background = true;
    result_.comms.push_back(rec);
    const size_t record = result_.comms.size() - 1;
    ++result_.background_comms;

    const size_t slot = alloc_slot();
    Transfer& tr = transfers_[slot];
    tr.record = record;
    tr.background = true;
    tr.src_node = rec.src_node;
    tr.dst_node = rec.dst_node;
    tr.remaining = std::max(ev.bytes, 1.0);
    tr.advance_time = now();
    tr.alive = true;
    set_slot_keys(slot);
    tr.qh = transfer_q_.push(kInf, static_cast<uint64_t>(tr.record), slot);
    ++num_active_;
    attach_transfer(slot);
  }

  // --- component tracking --------------------------------------------------

  int new_component() {
    int c;
    if (!free_components_.empty()) {
      c = free_components_.back();
      free_components_.pop_back();
    } else {
      components_.emplace_back();
      c = static_cast<int>(components_.size()) - 1;
    }
    auto& comp = components_[static_cast<size_t>(c)];
    comp.alive = true;
    comp.dirty = false;
    comp.shrunk = false;
    comp.members.clear();
    comp.nodes.clear();
    comp.keys.clear();
    return c;
  }

  void mark_dirty(int c) {
    auto& comp = components_[static_cast<size_t>(c)];
    if (!comp.dirty) {
      comp.dirty = true;
      dirty_.push_back(c);
    }
  }

  /// Release a component id, clearing exactly the ownership slots it still
  /// holds (slots taken over by a merge point elsewhere and are left).
  void free_component(int c) {
    auto& comp = components_[static_cast<size_t>(c)];
    for (const topo::NodeId nd : comp.nodes) {
      auto& owner = node_owner_[static_cast<size_t>(nd)];
      if (owner == c) owner = -1;
    }
    for (const int k : comp.keys) {
      auto& owner = key_owner_[static_cast<size_t>(k)];
      if (owner == c) owner = -1;
    }
    comp.alive = false;
    comp.dirty = false;
    comp.shrunk = false;
    comp.members.clear();
    comp.nodes.clear();
    comp.keys.clear();
    free_components_.push_back(c);
  }

  void merge_into(int target, int victim) {
    auto& t = components_[static_cast<size_t>(target)];
    auto& v = components_[static_cast<size_t>(victim)];
    // A shrunken victim may be splittable; the union inherits that doubt.
    if (v.shrunk) t.shrunk = true;
    for (const size_t s : v.members) transfers_[s].component = target;
    t.members.insert(t.members.end(), v.members.begin(), v.members.end());
    for (const topo::NodeId nd : v.nodes) {
      node_owner_[static_cast<size_t>(nd)] = target;
      t.nodes.push_back(nd);
    }
    for (const int k : v.keys) {
      key_owner_[static_cast<size_t>(k)] = target;
      t.keys.push_back(k);
    }
    v.alive = false;
    v.dirty = false;
    v.shrunk = false;
    v.members.clear();
    v.nodes.clear();
    v.keys.clear();
    free_components_.push_back(victim);
  }

  /// Place `slot` into the component owning any of its endpoint nodes or
  /// coupling keys, merging every component it bridges; a transfer touching
  /// nothing active starts its own. The touched component turns dirty.
  void attach_transfer(size_t slot) {
    Transfer& tr = transfers_[slot];
    int target = -1;
    const auto fold = [&](int c) {
      if (c == target) return;
      if (target == -1) {
        target = c;
        return;
      }
      if (components_[static_cast<size_t>(c)].members.size() >
          components_[static_cast<size_t>(target)].members.size())
        std::swap(target, c);
      merge_into(target, c);
    };
    const auto key_owner = [&](int k) {
      return static_cast<size_t>(k) < key_owner_.size()
                 ? key_owner_[static_cast<size_t>(k)]
                 : -1;
    };
    if (const int c = node_owner_[static_cast<size_t>(tr.src_node)]; c != -1)
      fold(c);
    if (const int c = node_owner_[static_cast<size_t>(tr.dst_node)]; c != -1)
      fold(c);
    const std::vector<int>& keys = slot_keys_[slot];
    for (const int k : keys)
      if (const int c = key_owner(k); c != -1) fold(c);
    if (target == -1) target = new_component();
    tr.component = target;
    auto& comp = components_[static_cast<size_t>(target)];
    comp.members.push_back(slot);
    node_owner_[static_cast<size_t>(tr.src_node)] = target;
    comp.nodes.push_back(tr.src_node);
    if (tr.dst_node != tr.src_node) {
      node_owner_[static_cast<size_t>(tr.dst_node)] = target;
      comp.nodes.push_back(tr.dst_node);
    }
    for (const int k : keys) {
      // Key ids come from the provider and are dense but unbounded a priori;
      // the array grows to the high-water key id and stays there.
      if (static_cast<size_t>(k) >= key_owner_.size())
        key_owner_.resize(static_cast<size_t>(k) + 1, -1);
      key_owner_[static_cast<size_t>(k)] = target;
      comp.keys.push_back(k);
    }
    mark_dirty(target);
  }

  /// Remove a finished transfer; the remnant component turns dirty (it may
  /// split — the next rebuild regroups it).
  void detach_transfer(size_t slot) {
    Transfer& tr = transfers_[slot];
    const int c = tr.component;
    auto& members = components_[static_cast<size_t>(c)].members;
    members.erase(std::find(members.begin(), members.end(), slot));
    transfer_q_.erase(tr.qh);
    tr.qh = core::kNullEventHandle;
    tr.alive = false;
    tr.component = -1;
    slot_keys_[slot].clear();  // keeps capacity for reuse
    free_slots_.push_back(slot);
    --num_active_;
    if (members.empty()) {
      free_component(c);
    } else {
      mark_dirty(c);
      components_[static_cast<size_t>(c)].shrunk = true;
    }
  }

  /// Dissolve every dirty component that lost a member — advancing its
  /// members' byte counts to `now()` — and regroup the released transfers
  /// from scratch. Closure guarantees the released transfers can only
  /// regroup among themselves, so clean components are never disturbed. A
  /// dirty component that only *grew* cannot split (and any merge it needed
  /// was materialized eagerly by attach_transfer), so it keeps its grouping
  /// and only has its members advanced — at the same sim time a dissolve
  /// would have advanced them, the clock having been pinned since the
  /// dirtying event. Afterwards `dirty_` lists every component still needing
  /// a solve (kept and freshly formed, flags set).
  void rebuild_dirty_components() {
    if (dirty_.empty()) return;
    loose_.clear();
    kept_.clear();
    for (const int c : dirty_) {
      auto& comp = components_[static_cast<size_t>(c)];
      if (!comp.alive || !comp.dirty) continue;
      if (!comp.shrunk) {
        for (const size_t s : comp.members) advance(transfers_[s]);
        kept_.push_back(c);
        continue;
      }
      for (const size_t s : comp.members) {
        advance(transfers_[s]);
        transfers_[s].component = -1;
        loose_.push_back(s);
      }
      comp.members.clear();
      free_component(c);
    }
    dirty_.swap(kept_);  // kept components stay queued for the solve
    for (const size_t s : loose_) attach_transfer(s);
  }

  /// Solve everything dirtied since the last flush. Event handlers only
  /// mark components dirty; the solves wait for the next flush point — the
  /// top of the event loop, or just before a barrier cost advances the
  /// clock. The clock cannot move in between (both clock advances assert
  /// `dirty_` is empty), so deferral is unobservable; what it buys is
  /// batching, e.g. a barrier release posting N transfers yields ONE flush
  /// with N disjoint dirty components, which is the fan-out
  /// SolveMode::kParallel feeds to the pool.
  void flush_refresh() {
    resolve_dirty();
    if (!cfg_.cross_check) return;
    check_committed_rates();
    check_whole_set_solve();
    check_queue_keys();
  }

  /// Regroup the dirty components, then solve each one and commit the
  /// results. The two phases are explicit: the *compute* phase reads shared
  /// engine state (transfers, components, the provider) strictly const and
  /// writes only its own staging slot — under SolveMode::kParallel each
  /// component is an independent pool task; components are disjoint by
  /// closure, and providers are const-safe over disjoint subsets (see
  /// flowsim::RateProvider). The *commit* phase then writes rates back,
  /// re-keys the finish-time queue and clears dirty flags sequentially, in
  /// ascending component id, so the engine state after a flush is
  /// bit-identical to kSerial at any thread count.
  void resolve_dirty() {
    rebuild_dirty_components();
    solve_list_.clear();
    for (const int c : dirty_) {
      auto& comp = components_[static_cast<size_t>(c)];
      if (!comp.alive || !comp.dirty) continue;
      comp.dirty = false;
      if (comp.members.empty()) continue;
      // Members in posting (record) order: the component's flow ordering
      // (and thus its arithmetic) is then a function of its content, not of
      // the attach/merge history — the order check_committed_rates()
      // re-solves in.
      std::sort(comp.members.begin(), comp.members.end(),
                [&](size_t a, size_t b) {
                  return transfers_[a].record < transfers_[b].record;
                });
      solve_list_.push_back(c);
    }
    dirty_.clear();
    if (solve_list_.empty()) return;
    std::sort(solve_list_.begin(), solve_list_.end());
    // Flat staging: one shared rate buffer with per-component offsets, sized
    // once per flush. Replaces a vector-of-vectors whose inner buffers were
    // reallocated whenever the component mix shifted.
    staged_off_.assign(1, 0);
    for (const int c : solve_list_)
      staged_off_.push_back(
          staged_off_.back() +
          components_[static_cast<size_t>(c)].members.size());
    if (staged_rates_.size() < staged_off_.back())
      staged_rates_.resize(staged_off_.back());
    const auto staged = [&](size_t i) {
      return std::span<double>(staged_rates_.data() + staged_off_[i],
                               staged_off_[i + 1] - staged_off_[i]);
    };

    const bool parallel =
        cfg_.solve == SolveMode::kParallel && solve_list_.size() > 1;
    if (parallel) {
      util::ThreadPool& pool = solve_pool();
      util::TaskGroup group(pool);
      // Chunked round-robin: enough tasks to balance uneven component
      // sizes, few enough to keep per-task overhead negligible.
      const size_t chunks =
          std::min(solve_list_.size(),
                   static_cast<size_t>(pool.num_threads()) * 4);
      for (size_t chunk = 0; chunk < chunks; ++chunk) {
        group.run([this, chunk, chunks, &staged] {
          for (size_t i = chunk; i < solve_list_.size(); i += chunks)
            compute_component_rates(solve_list_[i], staged(i));
        });
      }
      group.wait();  // rethrows the first provider failure, if any
    } else {
      for (size_t i = 0; i < solve_list_.size(); ++i)
        compute_component_rates(solve_list_[i], staged(i));
    }

    for (size_t i = 0; i < solve_list_.size(); ++i)
      commit_component(solve_list_[i], staged(i));
  }

  /// Compute phase of one component solve (see solve_fresh()). Reads shared
  /// state strictly const — safe to run concurrently with other components'
  /// compute phases.
  ///
  /// With EngineConfig::solve_memo set, the induced subproblem is first
  /// hashed — (salt, then per member: src node, dst node, remaining-bytes
  /// bit pattern), content only, never slots or labels — and looked up. A
  /// hit returns the memoized bits, which the RateProvider purity contract
  /// (flowsim/fluid_network.hpp) guarantees equal a fresh solve, so replays
  /// stay bit-identical whatever the memo contains; a verify-mode memo
  /// proves that on every hit by re-solving anyway. Misses solve fresh and
  /// stage the solution for cross-query publication (sim/solve_memo.hpp).
  void compute_component_rates(int c, std::span<double> out) const {
    const auto& comp = components_[static_cast<size_t>(c)];
    BWS_ASSERT(out.size() == comp.members.size(), "rate size mismatch");
    SolveMemo* const memo = cfg_.solve_memo;
    if (memo == nullptr) {
      solve_fresh(comp, out);
      return;
    }
    SolveScratch& scratch = solve_scratch();
    util::StructuralHash h;
    h.mix_u64(memo->salt());
    for (const size_t s : comp.members) {
      const Transfer& tr = transfers_[s];
      h.mix_i64(tr.src_node);
      h.mix_i64(tr.dst_node);
      h.mix_f64(tr.remaining);
    }
    const uint64_t key = h.digest();
    bool from_frozen = false;
    std::vector<double>& hit = scratch.memo_rates;
    if (memo->lookup(key, hit, from_frozen)) {
      BWS_CHECK(hit.size() == comp.members.size(),
                "solve memo returned a rate vector of the wrong size "
                "(key collision or a mis-salted store)");
      if (memo->verify()) {
        std::vector<double>& fresh = scratch.memo_verify;
        fresh.resize(hit.size());
        solve_fresh(comp, fresh);
        for (size_t k = 0; k < fresh.size(); ++k) {
          BWS_CHECK(hit[k] == fresh[k],
                    strformat("solve memo hit diverged from a fresh solve: "
                              "component %d member %zu rate %.17g vs %.17g "
                              "at t=%.9g",
                              c, k, hit[k], fresh[k], now()));
        }
      }
      std::copy(hit.begin(), hit.end(), out.begin());
      return;
    }
    solve_fresh(comp, out);
    hit.assign(out.begin(), out.end());
    memo->stage(key, hit);
  }

  /// Solve one component from scratch: build the induced communication graph
  /// of its members and hand it to the provider. The graph and the
  /// provider's solver state are both reused per-thread scratch: the
  /// CommGraph keeps its capacity across solves (unlabeled adds — the memo
  /// key and the provider ignore labels) and the arena serves the max-min
  /// problem construction. A component is closed under shared endpoints and
  /// coupling keys by construction, so solving it alone is exact.
  void solve_fresh(const Component& comp, std::span<double> out) const {
    graph::CommGraph& sub = solve_scratch().sub;
    sub.clear();
    sub.reserve(static_cast<int>(comp.members.size()));
    for (const size_t s : comp.members) {
      const Transfer& tr = transfers_[s];
      sub.add(tr.src_node, tr.dst_node, tr.remaining);
    }
    provider_.rates_into(sub, util::Arena::thread_local_instance(), out);
  }

  /// Commit phase: write one component's staged rates back into its
  /// transfers and re-key their finish-time queue entries. Sequential only.
  void commit_component(int c, std::span<const double> rates) {
    const auto& comp = components_[static_cast<size_t>(c)];
    for (size_t k = 0; k < comp.members.size(); ++k) {
      BWS_CHECK(rates[k] > 0.0, "provider returned a zero rate");
      Transfer& tr = transfers_[comp.members[k]];
      tr.rate = rates[k];
      tr.finish_pred = tr.advance_time + tr.remaining / tr.rate;
      transfer_q_.update(tr.qh, tr.finish_pred);
    }
  }

  /// The pool parallel flushes run on: the injected one, else a lazily
  /// created private pool (solve_threads workers).
  util::ThreadPool& solve_pool() {
    if (cfg_.solve_pool != nullptr) return *cfg_.solve_pool;
    if (!owned_pool_)
      owned_pool_ = std::make_unique<util::ThreadPool>(cfg_.solve_threads);
    return *owned_pool_;
  }

  /// Alive transfer slots in posting (record) order.
  [[nodiscard]] std::vector<size_t> active_slots_by_record() const {
    std::vector<size_t> slots;
    slots.reserve(num_active_);
    for (size_t s = 0; s < transfers_.size(); ++s)
      if (transfers_[s].alive) slots.push_back(s);
    std::sort(slots.begin(), slots.end(), [&](size_t a, size_t b) {
      return transfers_[a].record < transfers_[b].record;
    });
    return slots;
  }

  [[nodiscard]] graph::CommGraph full_active_graph(
      const std::vector<size_t>& slots) const {
    graph::CommGraph active;
    for (const size_t s : slots) {
      const Transfer& tr = transfers_[s];
      active.add(tr.src_node, tr.dst_node, tr.remaining);
    }
    return active;
  }

  /// cross_check (a): every alive component, re-solved fresh on this thread
  /// — not through the pool, not through the solve memo — must reproduce
  /// its committed rates bitwise. Byte counts only move when a component is
  /// dissolved or completes, so each member's `remaining` is still the value
  /// its last solve saw; a component that changed without turning dirty (or
  /// a pool or memo solve that diverged from a serial fresh one) fails here.
  void check_committed_rates() {
    for (size_t c = 0; c < components_.size(); ++c) {
      const Component& comp = components_[c];
      if (!comp.alive || comp.members.empty()) continue;
      oracle_rates_.resize(comp.members.size());
      solve_fresh(comp, oracle_rates_);
      for (size_t k = 0; k < comp.members.size(); ++k) {
        const Transfer& tr = transfers_[comp.members[k]];
        BWS_CHECK(tr.rate == oracle_rates_[k],
                  strformat("committed rate diverged from a fresh re-solve: "
                            "component %zu member %zu (comm record %zu) "
                            "rate %.17g vs %.17g at t=%.9g",
                            c, k, tr.record, tr.rate, oracle_rates_[k],
                            now()));
      }
    }
  }

  /// cross_check (b): one whole-set solve — genuinely different arithmetic
  /// from the per-component solves — must agree with every cached rate
  /// within 1e-9 relative.
  void check_whole_set_solve() const {
    if (num_active_ == 0) return;
    const auto slots = active_slots_by_record();
    const auto rates = provider_.rates(full_active_graph(slots));
    BWS_ASSERT(rates.size() == slots.size(), "rate size mismatch");
    for (size_t k = 0; k < slots.size(); ++k) {
      const double full = rates[k];
      const double inc = transfers_[slots[k]].rate;
      BWS_CHECK(std::abs(full - inc) <=
                    1e-9 * std::max(std::abs(full), std::abs(inc)),
                strformat("incremental refresh diverged from full solve: "
                          "comm record %zu rate %.17g vs %.17g at t=%.9g",
                          transfers_[slots[k]].record, inc, full, now()));
    }
  }

  /// cross_check (c): every alive transfer's queue key must equal its
  /// cached finish prediction — a commit that re-keyed the wrong entry (or
  /// forgot one) surfaces here instead of as a silent mis-ordering.
  void check_queue_keys() const {
    for (const auto& tr : transfers_) {
      if (!tr.alive) continue;
      BWS_CHECK(transfer_q_.time_of(tr.qh) == tr.finish_pred,
                strformat("finish-time queue key diverged from the cached "
                          "prediction: comm record %zu keyed %.17g vs "
                          "%.17g at t=%.9g",
                          tr.record, transfer_q_.time_of(tr.qh),
                          tr.finish_pred, now()));
    }
  }

  [[nodiscard]] double earliest_transfer_end() const {
    double best = kInf;
    for (const auto& tr : transfers_)
      if (tr.alive) best = std::min(best, tr.finish_pred);
    return std::max(best, now());
  }

  [[nodiscard]] double earliest_compute_end() const {
    double best = kInf;
    for (TaskId t = 0; t < trace_.num_tasks(); ++t)
      if (state_[static_cast<size_t>(t)] == TaskState::kComputing)
        best = std::min(best, ready_at_[static_cast<size_t>(t)]);
    // A wake-up can sit in the past when another job's barrier cost overshot
    // it (barriers are per-job but the cost advances the shared clock); the
    // task then wakes, late, at the current time.
    return std::max(best, now());
  }

  /// Reference selection for cross_check: linear argmin over every transfer
  /// slot, ties to the lowest record — the order the finish-time heap keys.
  [[nodiscard]] size_t scan_next_transfer() const {
    size_t done = transfers_.size();
    for (size_t s = 0; s < transfers_.size(); ++s) {
      const Transfer& tr = transfers_[s];
      if (!tr.alive) continue;
      if (done == transfers_.size() ||
          tr.finish_pred < transfers_[done].finish_pred ||
          (tr.finish_pred == transfers_[done].finish_pred &&
           tr.record < transfers_[done].record))
        done = s;
    }
    BWS_ASSERT(done < transfers_.size(), "no transfer completed");
    return done;
  }

  void complete_one_transfer() {
    // Finish the transfer with the earliest predicted completion; ties go to
    // the one posted first (lowest record, the finish-time heap's tie key).
    // Only its own component needs its bytes advanced.
    BWS_ASSERT(!transfer_q_.empty(), "no transfer completed");
    const size_t done = transfer_q_.top();
    if (cfg_.cross_check) {
      const size_t scan = scan_next_transfer();
      BWS_CHECK(scan == done,
                strformat("event queue diverged from scan on the completing "
                          "transfer: heap slot %zu (record %zu) vs scan "
                          "slot %zu (record %zu) at t=%.9g",
                          done, transfers_[done].record, scan,
                          transfers_[scan].record, now()));
    }
    advance(transfers_[done]);
    BWS_ASSERT(
        transfers_[done].remaining <=
            1e-6 + 1e-9 * result_.comms[transfers_[done].record].bytes,
        "completing a transfer with significant bytes left");

    const Transfer tr = transfers_[done];
    detach_transfer(done);

    auto& rec = result_.comms[tr.record];
    const double latency = latency_for(rec);
    rec.finish = now() + latency;
    const double ref = reference_duration(rec);
    rec.penalty = ref > 0.0 ? (rec.finish - rec.start) / ref : 1.0;

    // A background flow blocks nobody: record it; the remnant re-solves at
    // the next flush.
    if (tr.background) return;

    // Unblock the sender (rendezvous) at drain time.
    if (tr.rendezvous) {
      auto& stats = result_.tasks[static_cast<size_t>(tr.src)];
      rec.sender_time = now() - rec.send_post;
      stats.send_blocked_seconds += now() - blocked_since_[static_cast<size_t>(tr.src)];
      state_[static_cast<size_t>(tr.src)] = TaskState::kReady;
    } else {
      rec.sender_time = 0.0;
    }
    // Retire a tracked Isend; may release the sender's WaitAll.
    if (tr.src_tracked) retire_request(tr.src, /*latency=*/0.0);
    // Unblock the receiver one latency later; the delay is modelled as a
    // tiny compute burst so event ordering stays exact.
    if (tr.dst_nonblocking) {
      // Non-blocking receive: retire the request; release a pending WaitAll
      // when it was the last one.
      retire_request(tr.dst, latency);
    } else {
      auto& stats = result_.tasks[static_cast<size_t>(tr.dst)];
      stats.recv_blocked_seconds +=
          (now() + latency) - blocked_since_[static_cast<size_t>(tr.dst)];
      if (latency > 0.0) {
        begin_compute(tr.dst, now() + latency);
      } else {
        state_[static_cast<size_t>(tr.dst)] = TaskState::kReady;
      }
    }

    if (state_[static_cast<size_t>(tr.src)] == TaskState::kReady)
      advance_task(tr.src);
    if (state_[static_cast<size_t>(tr.dst)] == TaskState::kReady)
      advance_task(tr.dst);
  }

  /// Retire one non-blocking request of `task`; if it was the last one and
  /// the task sits in WaitAll, release it (after `latency` for receives).
  void retire_request(TaskId task, double latency) {
    auto& outstanding = outstanding_requests_[static_cast<size_t>(task)];
    BWS_ASSERT(outstanding > 0, "request completion without a request");
    --outstanding;
    if (outstanding != 0 ||
        state_[static_cast<size_t>(task)] != TaskState::kWaitAll)
      return;
    auto& stats = result_.tasks[static_cast<size_t>(task)];
    stats.recv_blocked_seconds +=
        (now() + latency) - blocked_since_[static_cast<size_t>(task)];
    if (latency > 0.0) {
      begin_compute(task, now() + latency);
    } else {
      state_[static_cast<size_t>(task)] = TaskState::kReady;
    }
  }

  /// Wake every computing task whose wake-up is due, in increasing task
  /// id, re-checking eligibility after every wake — a wake can cascade into
  /// a barrier release that advances the clock past more deadlines, or start
  /// zero-length computes. Tasks that become eligible *behind* the sweep
  /// position are re-queued for the next main-loop turn: the sweep never
  /// revisits lower ids. Under cross_check every choice, and the decision to
  /// stop, is re-derived by scan_next_wake().
  void wake_computers() {
    // `eligible_` is a reused vector kept sorted by task id — it replaces a
    // std::set that node-allocated on every insert. Task ids are unique here
    // (one compute_q_ entry per computing task), so id order is total and
    // the in-place std::sort after each drain reproduces the set's iteration
    // order exactly; insert/erase churn is a memmove, never an allocation.
    const auto drain = [&] {
      bool grew = false;
      while (!compute_q_.empty() &&
             compute_q_.top_time() <= now() + 1e-15) {
        eligible_.push_back({compute_q_.top(), compute_q_.top_time()});
        compute_q_.pop();
        grew = true;
      }
      if (grew)
        std::sort(eligible_.begin(), eligible_.end(),
                  [](const Wake& a, const Wake& b) { return a.task < b.task; });
    };
    eligible_.clear();
    drain();
    TaskId last = -1;
    while (!eligible_.empty()) {
      const auto it = std::upper_bound(
          eligible_.begin(), eligible_.end(), last,
          [](TaskId id, const Wake& e) { return id < e.task; });
      if (it == eligible_.end()) break;
      const TaskId t = it->task;
      if (cfg_.cross_check) check_wake(last, t);
      eligible_.erase(it);
      last = t;
      state_[static_cast<size_t>(t)] = TaskState::kReady;
      advance_task(t);
      drain();
    }
    // However the sweep ended, nothing due may remain above `last`.
    if (cfg_.cross_check) check_wake(last, -1);
    // Entries behind the sweep position (or beyond a break) are re-queued,
    // ascending id, for the next main-loop turn — the heap's pop order is
    // key-determined, so the push order is immaterial.
    for (const auto& e : eligible_)
      compute_q_.push(e.when, static_cast<uint64_t>(e.task), e.task);
    eligible_.clear();
  }

  /// Reference wake choice for cross_check: the smallest task id above
  /// `last` that is computing and due, or -1 — one step of a linear sweep.
  [[nodiscard]] TaskId scan_next_wake(TaskId last) const {
    for (TaskId t = last + 1; t < trace_.num_tasks(); ++t)
      if (state_[static_cast<size_t>(t)] == TaskState::kComputing &&
          ready_at_[static_cast<size_t>(t)] <= now() + 1e-15)
        return t;
    return -1;
  }

  /// cross_check (d): after waking `last`, the sweep's next choice `t`
  /// (-1 = the sweep ends) must be the linear sweep's.
  void check_wake(TaskId last, TaskId t) const {
    const TaskId scan = scan_next_wake(last);
    BWS_CHECK(scan == t,
              strformat("wake sweep diverged from scan after task %d: "
                        "heap wakes task %d vs scan task %d at t=%.9g",
                        last, t, scan, now()));
  }

  // --- helpers -------------------------------------------------------------

  [[nodiscard]] double latency_for(const CommRecord& rec) const {
    return rec.src_node == rec.dst_node ? 0.0 : cluster_.network().latency;
  }

  [[nodiscard]] double reference_duration(const CommRecord& rec) const {
    const auto& net = cluster_.network();
    if (rec.src_node == rec.dst_node)
      return rec.bytes / net.shm_bandwidth;
    return net.latency + rec.bytes / net.reference_bandwidth();
  }

  [[nodiscard]] std::string deadlock_message() const {
    std::string msg = "simulation deadlock: ";
    for (TaskId t = 0; t < trace_.num_tasks(); ++t) {
      const char* s = "?";
      switch (state_[static_cast<size_t>(t)]) {
        case TaskState::kReady: s = "ready"; break;
        case TaskState::kComputing: s = "computing"; break;
        case TaskState::kSendBlocked: s = "send"; break;
        case TaskState::kRecvBlocked: s = "recv"; break;
        case TaskState::kWaitAll: s = "waitall"; break;
        case TaskState::kBarrier: s = "barrier"; break;
        case TaskState::kDone: s = "done"; break;
      }
      msg += strformat("task%d=%s ", t, s);
    }
    return msg;
  }

  const AppTrace& trace_;
  const topo::ClusterSpec& cluster_;
  const Placement& placement_;
  const flowsim::RateProvider& provider_;
  EngineConfig cfg_;

  core::Clock clock_;  // the shared event-core time source
  uint64_t next_order_ = 0;
  int num_done_ = 0;

  std::vector<TaskState> state_;
  std::vector<size_t> pc_;
  std::vector<double> ready_at_;
  std::vector<double> blocked_since_;
  // Match queues, keyed by dst task. Vectors, not deques: a deque heap-
  // allocates its node map on construction (2N of them would dominate engine
  // setup) and churns nodes on push/pop; these queues hold a handful of
  // entries, so an in-place erase is a short memmove and the capacity sticks.
  std::vector<std::vector<PendingSend>> pending_sends_;
  std::vector<std::vector<PendingRecv>> pending_recvs_;
  std::vector<int> outstanding_requests_;

  // Dynamic-cluster state (sim/scenario.hpp). node_up_ gates background-flow
  // admission; job_of_/job_size_/job_barrier_arrivals_ scope barriers to
  // their job; script_ replays off its own (time, script index) queue.
  std::vector<bool> node_up_;
  std::vector<int> job_of_;
  std::vector<int> job_size_;
  std::vector<int> job_barrier_arrivals_;
  std::vector<ScriptEvent> script_;
  core::EventQueue<size_t> script_q_;
  std::vector<size_t> aborting_;  // fail_node victim snapshot

  // The event-core indices: alive transfers keyed by predicted finish time
  // (tie: posting record), computing tasks keyed by wake-up time (tie: task
  // id).
  core::EventQueue<size_t> transfer_q_;
  core::EventQueue<TaskId> compute_q_;

  /// One drained compute_q_ entry awaiting its wake (wake_computers).
  struct Wake {
    TaskId task;
    double when;
  };
  std::vector<Wake> eligible_;  // wake sweep scratch, sorted by task id

  std::vector<Transfer> transfers_;  // slot-addressed; see Transfer::alive
  std::vector<std::vector<int>> slot_keys_;  // coupling keys, slot-parallel
  std::vector<size_t> free_slots_;
  size_t num_active_ = 0;
  std::vector<Component> components_;
  std::vector<int> free_components_;
  std::vector<int> dirty_;                        // dirty component ids
  std::vector<size_t> loose_;                     // rebuild scratch
  std::vector<int> kept_;                         // rebuild scratch
  std::vector<int> solve_list_;                   // flush work list
  std::vector<double> staged_rates_;              // staged rates, flat
  std::vector<size_t> staged_off_;                // per-component offsets
  std::vector<double> oracle_rates_;              // cross_check scratch
  std::unique_ptr<util::ThreadPool> owned_pool_;  // lazy kParallel fallback
  // Component ownership as dense arrays: node_owner_ is sized to the cluster
  // up front; key_owner_ grows to the high-water coupling-key id. -1 = free.
  // Entries are erased (reset to -1) exactly once, at dissolve, so plain
  // sentinels suffice — no epoch stamps needed.
  std::vector<int> node_owner_;
  std::vector<int> key_owner_;
  SimResult result_;
};

}  // namespace

SimResult run_simulation(const AppTrace& trace,
                         const topo::ClusterSpec& cluster,
                         const Placement& placement,
                         const flowsim::RateProvider& provider,
                         const EngineConfig& config) {
  return run_simulation(trace, cluster, placement, provider, Scenario{},
                        config);
}

SimResult run_simulation(const AppTrace& trace,
                         const topo::ClusterSpec& cluster,
                         const Placement& placement,
                         const flowsim::RateProvider& provider,
                         const Scenario& scenario,
                         const EngineConfig& config) {
  BWS_CHECK(trace.num_tasks() >= 1, "trace needs at least one task");
  scenario.validate(trace.num_tasks(), cluster.num_nodes());
  Engine engine(trace, cluster, placement, provider, scenario, config);
  return engine.run();
}

}  // namespace bwshare::sim
