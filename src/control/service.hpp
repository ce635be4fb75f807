// The control-plane service: a deadline-aware request broker between
// concurrent clients and one optimization engine.
//
// Sections 2 and 5 of the paper put the environment's controller at the
// center of a smart space: many applications (links, occupants, an
// operator console) share one programmable surface whose optimize loop
// must finish inside the channel coherence time. That makes the
// controller a *service* with all the classic service problems — a
// bounded queue, deadlines, priorities, overload — not a library call.
// control::Service is that broker:
//
//   - Sessions multiplex clients over the existing wire protocol
//     (message.hpp types 5-13). Every admitted request terminates in
//     exactly one reply frame — OptimizeReply, MutateReply, or an
//     explicit Reject. The service never drops admitted work silently;
//     the Stats accounting equation
//         admitted == served + expired + evicted + dropped_closed
//                     + queue_depth()
//     holds at every quiescent point and the soak harness asserts it.
//   - The request queue is bounded and priority-ordered. When it
//     saturates, a newcomer that outranks the lowest-priority resident
//     evicts it (the victim gets Reject(kQueueFull)); otherwise the
//     newcomer is refused. Above a configurable occupancy, requests
//     below the shed floor are refused outright (kShed) — load shedding
//     before the queue is full, so high-priority traffic keeps headroom.
//   - Deadlines are priced on the shared SimClock: a request whose
//     deadline passes while it waits is answered Reject(kExpired),
//     never run late. Queue-wait and compute time are reported
//     separately in every OptimizeReply (and in SearchResult), so tail
//     latency is attributable.
//   - Epochs give snapshot consistency on the scene's revision stamps:
//     an optimize cycle runs against the scene frozen at its cycle
//     start; MutateRequests queue and land only at the epoch boundary
//     after the cycle completes, bumping epoch(). A reply's epoch field
//     names the snapshot it saw.
//   - Slow readers are bounded by a per-session outbox: past the
//     watermark new work is refused with Reject(kBackpressure); a full
//     outbox closes the session (its queued requests are accounted as
//     dropped_closed — visible, not silent).
//   - A watchdog guards each cycle: when the engine reports a stuck or
//     failed cycle (sim time over watchdog_cycle_s, or a final apply
//     that never landed), the service dumps the flight recorder,
//     reverts the engine to the last known-good configuration, answers
//     the request with a degraded status, and keeps serving.
//
// The service is deliberately single-threaded and deterministic: submit()
// ingests frames, run_cycle() executes at most one request and closes the
// epoch. pressd (tools/pressd.cpp) wraps it in a socket event loop;
// press_loadgen drives it in-process (through fault::ChaosLink) for the
// chaos soak. The engine is injected as a ServiceEngine callback bundle —
// core::make_service_engine (core/serve.hpp) adapts a core::System —
// keeping this layer free of any dependency on core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "control/message.hpp"
#include "control/plane.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"

namespace press::control {

/// What one executed optimize cycle produced, as the service sees it.
struct EngineResult {
    bool ok = false;          ///< search ran and the best config landed
    double best_score = 0.0;  ///< objective score of the applied config
    std::uint32_t evaluations = 0;
    double sim_elapsed_s = 0.0;  ///< simulated seconds the cycle consumed
    double compute_s = 0.0;      ///< wall seconds the search consumed
};

/// The injected engine: everything the service needs from the layer that
/// owns the scene (core::System), expressed as callbacks so control does
/// not depend on core — the same decoupling Controller uses for
/// ApplyFn/MeasureFn. Build one with core::make_service_engine().
struct ServiceEngine {
    /// Runs one budgeted optimize cycle and leaves the best config
    /// applied. `budget_s` is already clamped by the service.
    std::function<EngineResult(const OptimizeRequest&, double budget_s)>
        optimize;
    /// Applies one element mutation; false if it could not land.
    std::function<bool(const MutateRequest&)> mutate;
    /// Request validation against the live scene (array/link/element
    /// bounds, known searcher/objective selectors).
    std::function<bool(const OptimizeRequest&)> validate;
    std::function<bool(const MutateRequest&)> validate_mutate;
    /// Records the current configuration as known-good (called after
    /// every healthy cycle) / restores the last known-good (called by
    /// the watchdog on a stuck cycle).
    std::function<void()> checkpoint;
    std::function<bool()> revert;
    /// Revision stamp of the scene (environment + array structure);
    /// unchanged across an optimize cycle — the frozen-scene guarantee
    /// tests assert on.
    std::function<std::uint64_t()> scene_revision;
};

struct ServiceOptions {
    /// Declared so `ServiceOptions{}` (the Service constructor's default
    /// argument) runs one constructor rather than aggregate-initializing
    /// every member at each call site, whose exception cleanup GCC 12
    /// misreads as destroying an uninitialized telemetry.exemplar_metric.
    ServiceOptions() = default;

    std::size_t queue_capacity = 64;   ///< bounded request queue
    std::size_t outbox_capacity = 64;  ///< per-session reply frames
    /// Outbox depth at which new requests from that session are refused
    /// with kBackpressure (0 = capacity * 3 / 4).
    std::size_t outbox_watermark = 0;
    /// Deadline assigned when a request carries deadline_us == 0,
    /// measured on the SimClock from arrival.
    double default_deadline_s = 0.25;
    /// Queue occupancy (fraction of capacity) above which requests with
    /// priority below shed_priority_floor are refused with kShed.
    double shed_occupancy = 0.75;
    std::uint8_t shed_priority_floor = 64;
    double default_budget_s = 0.02;  ///< when budget_us == 0
    double max_budget_s = 0.1;       ///< hard clamp on requested budgets
    /// A cycle whose simulated time exceeds this trips the watchdog.
    double watchdog_cycle_s = 1.0;
    /// Name passed to obs::write_flight on a watchdog trip.
    std::string flight_dump_name = "service_watchdog";
    /// Arm the flight recorder at construction (so a trip always has a
    /// window to dump).
    bool arm_flight = true;
    /// Fault injection: every Nth executed request is treated as a stuck
    /// cycle even if healthy (0 = off). The watchdog path — flight dump,
    /// revert, degraded reply — runs for real; tests and the chaos soak
    /// use it to prove the service survives its own recovery.
    std::size_t inject_stall_every = 0;
    /// Introspection plane: sampler cadence (on the service SimClock)
    /// and ring sizing. telemetry.interval_s <= 0 turns the sampler off,
    /// which also refuses Subscribe with kBadRequest.
    obs::TimeseriesOptions telemetry;
    /// Rolling SLO window/targets; derived figures export as
    /// service.slo.* gauges and ride every telemetry frame.
    obs::SloOptions slo;
    /// Burn rate at which the service treats the deadline-miss rate as
    /// an incident: it dumps the flight recorder and taps subscribers
    /// (FlightTap, reason kSloBurn). 0 disables the alarm.
    double slo_burn_alarm = 10.0;
    /// The alarm needs at least this many in-window requests (a single
    /// early miss in an empty window is 100% miss rate, not an incident).
    std::uint64_t slo_alarm_min_requests = 8;
    double slo_alarm_cooldown_s = 5.0;
    std::string slo_flight_dump_name = "service_slo_burn";
    /// Floor on a Subscribe's requested cadence.
    double min_subscribe_interval_s = 0.001;
};

/// Deterministic single-threaded service core. Not thread-safe: pressd
/// serializes socket events into it; tests call it directly.
class Service {
public:
    using SessionId = std::uint16_t;

    Service(ServiceEngine engine, ServiceOptions options = {});

    /// Registers a client session; the client should follow with a Hello
    /// frame (submit) to receive its HelloAck and tune its priority cap.
    SessionId connect();

    /// Closes a session. Its queued requests are answered by accounting
    /// (dropped_closed), not by frames — there is no reader left.
    void disconnect(SessionId id);

    bool session_open(SessionId id) const;

    /// Ingests one wire frame from a session. Decode failures are
    /// counted (service.frames_bad + wire.frames_corrupt) and dropped —
    /// an unparseable frame names no request, so no reply is owed.
    /// Admission outcomes (HelloAck, Reject, queued) are immediate;
    /// execution happens in run_cycle().
    void submit(SessionId id, const std::vector<std::uint8_t>& frame);

    /// Pops up to `max_frames` outbound frames for a session, in order.
    /// A client that never calls this is a slow reader: its outbox fills,
    /// backpressure kicks in, and eventually the session is closed.
    std::vector<std::vector<std::uint8_t>> take_outgoing(
        SessionId id, std::size_t max_frames = SIZE_MAX);

    /// Front frame of a session's outbox without removing it (nullptr if
    /// none). Paired with pop_outgoing so a transport can attempt a send
    /// and, on a full kernel buffer, leave the frame queued — the outbox,
    /// not the transport, is the single buffering point the backpressure
    /// accounting watches.
    const std::vector<std::uint8_t>* peek_outgoing(SessionId id) const;
    /// Drops the front frame (after the caller delivered it).
    void pop_outgoing(SessionId id);

    std::size_t outbox_depth(SessionId id) const;

    /// Executes at most one queued request, then closes the epoch:
    /// pending mutations land, epoch() bumps, the engine checkpoints.
    /// Returns true if any work was done (request executed, expiry
    /// processed, or mutations applied).
    bool run_cycle();

    /// Drains the queue and pending mutations; returns cycles run.
    std::size_t run_until_idle();

    /// Advances the service SimClock (pressd maps wall time onto it;
    /// tests use it to expire deadlines).
    void advance_clock(double seconds) { clock_.advance(seconds); }
    const SimClock& clock() const { return clock_; }

    std::uint64_t epoch() const { return epoch_; }
    std::size_t queue_depth() const { return queue_.size(); }
    std::size_t pending_mutations() const { return mutations_.size(); }

    struct Stats {
        std::uint64_t frames_in = 0;     ///< frames submitted
        std::uint64_t frames_bad = 0;    ///< undecodable, dropped
        std::uint64_t admitted = 0;      ///< optimize requests enqueued
        std::uint64_t served = 0;        ///< executed, reply sent
        std::uint64_t expired = 0;       ///< deadline passed in queue
        std::uint64_t evicted = 0;       ///< displaced by higher priority
        std::uint64_t dropped_closed = 0;///< queued when session closed
        std::uint64_t shed = 0;          ///< refused: load shedding
        std::uint64_t duplicates = 0;    ///< refused: seq already seen
        std::uint64_t bad_requests = 0;  ///< refused: validation failed
        std::uint64_t backpressure = 0;  ///< refused: slow reader
        std::uint64_t queue_full = 0;    ///< refused: full, outranked
        std::uint64_t rejected = 0;      ///< total Reject frames sent
        std::uint64_t mutations_applied = 0;
        std::uint64_t mutations_rejected = 0;
        std::uint64_t sessions_dropped_slow = 0;
        std::uint64_t watchdog_trips = 0;
        std::uint64_t flight_dumps = 0;  ///< watchdog/SLO dumps written
        std::uint64_t cycles = 0;        ///< run_cycle calls doing work
        // Introspection plane. Telemetry pushes are fire-and-forget by
        // contract, but never silently: every frame that could not be
        // delivered is counted here, the push-frame side of the
        // no-silent-drops ledger.
        std::uint64_t subscriptions = 0;      ///< Subscribe frames accepted
        std::uint64_t telemetry_samples = 0;  ///< sampler windows closed
        std::uint64_t telemetry_frames_sent = 0;
        std::uint64_t telemetry_frames_dropped = 0;  ///< drop-oldest hits
        std::uint64_t telemetry_frames_truncated = 0;
        std::uint64_t flight_taps = 0;  ///< FlightTap frames delivered
        std::uint64_t slo_alarms = 0;   ///< burn-rate alarm trips
    };
    const Stats& stats() const { return stats_; }
    const ServiceOptions& options() const { return options_; }

    /// The introspection sampler (rings of counter deltas, gauge samples,
    /// histogram window digests, exemplars). Read-only from outside; the
    /// service owns the sampling cadence.
    const obs::Timeseries& timeseries() const { return timeseries_; }
    /// Monotonic snapshot revision (StatusReply::revision).
    std::uint64_t telemetry_revision() const { return timeseries_.revision(); }
    /// Service-clock seconds since construction (StatusReply::uptime_s).
    double uptime_s() const { return clock_.now_s() - start_sim_s_; }
    /// Rolling SLO window over executed/expired requests.
    obs::SloTracker& slo() { return slo_; }

    /// The no-silent-drops ledger: every admitted request is either
    /// still queued or accounted in exactly one terminal counter.
    bool accounting_balanced() const {
        return stats_.admitted == stats_.served + stats_.expired +
                                      stats_.evicted + stats_.dropped_closed +
                                      queue_.size();
    }

private:
    /// One outbound frame. Telemetry pushes are tagged so backpressure
    /// can apply a different policy to them: replies are never dropped
    /// (a full outbox closes the session instead), telemetry frames are
    /// drop-oldest — stale windows make way for fresh ones, counted in
    /// service.telemetry.frames_dropped.
    struct OutFrame {
        std::vector<std::uint8_t> bytes;
        bool telemetry = false;
    };

    struct Session {
        std::uint8_t priority_cap = 255;
        bool hello_seen = false;
        std::deque<OutFrame> outbox;
        /// Recently seen request seqs (dedupe window for chaos-duplicated
        /// or client-retransmitted frames).
        std::deque<std::uint32_t> seen_seqs;
        // Telemetry subscription (Subscribe frame; interval_us == 0
        // clears it).
        bool subscribed = false;
        std::string sub_prefix;
        double sub_interval_s = 0.0;
        std::uint8_t sub_flags = 0;
        double next_push_s = 0.0;  ///< SimClock time of the next push
        std::uint32_t sub_seq = 0; ///< seq counter for pushed frames
    };

    struct Pending {
        SessionId session = 0;
        std::uint32_t seq = 0;
        OptimizeRequest request;
        std::uint8_t priority = 0;  ///< clamped by the session's cap
        double deadline_sim_s = 0.0;
        std::uint64_t admit_order = 0;
        std::chrono::steady_clock::time_point arrival_wall;
    };

    void handle(SessionId id, Session& session, const Decoded& decoded);
    void admit_optimize(SessionId id, Session& session,
                        const Decoded& decoded, const OptimizeRequest& req);
    void reject(SessionId id, std::uint32_t seq, RejectReason reason);
    /// Appends a frame to a session's outbox; closes the session (slow
    /// reader) when the outbox is full. Safe to call for closed ids.
    void push_frame(SessionId id, std::vector<std::uint8_t> frame);
    void handle_subscribe(SessionId id, Session& session,
                          const Decoded& decoded, const Subscribe& sub);
    /// Samples the registry on cadence and pushes due telemetry frames.
    /// Returns true if a sample was taken or any frame pushed.
    bool pump_telemetry();
    /// Encodes and enqueues one telemetry push for a subscribed session,
    /// applying drop-oldest under backpressure. Returns false (and
    /// counts the drop) when the frame could not be delivered.
    bool push_telemetry(SessionId id, Session& session, const Message& msg);
    /// Builds the TelemetryFrame payload for one subscription: the
    /// sampler's latest window plus live service state (queue depth,
    /// per-session outbox depths, SLO figures).
    TelemetryFrame make_telemetry_frame(const Session& session);
    /// Fires FlightTap at every subscriber that opted in.
    void tap_subscribers(FlightTapReason reason, const std::string& path);
    /// Trips the SLO burn alarm (flight dump + taps) when the windowed
    /// burn rate crosses options_.slo_burn_alarm.
    void check_slo_alarm();
    void publish_slo_gauges(double now_s);
    void drop_session(SessionId id, bool slow);
    bool seen_before(const Session& session, std::uint32_t seq) const;
    /// Enters a seq into the dedupe window — called only when the request
    /// is admitted, so a retransmit after a transient Reject (lost on the
    /// wire) is re-evaluated instead of answered kDuplicate.
    void record_seen(Session& session, std::uint32_t seq);
    /// Removes and returns the runnable request with the highest
    /// priority (ties: earliest admit), expiring stale entries along the
    /// way. Nullopt when the queue empties.
    bool pop_next(Pending& out);
    void execute(const Pending& pending);
    void close_epoch();
    std::size_t outbox_watermark() const;

    ServiceEngine engine_;
    ServiceOptions options_;
    SimClock clock_;
    std::map<SessionId, Session> sessions_;
    SessionId next_session_ = 1;
    std::vector<Pending> queue_;
    std::uint64_t next_admit_order_ = 0;
    /// Mutations fenced to the next epoch boundary.
    struct PendingMutation {
        SessionId session = 0;
        std::uint32_t seq = 0;
        MutateRequest request;
    };
    std::vector<PendingMutation> mutations_;
    std::uint64_t epoch_ = 1;
    std::uint64_t executed_ = 0;  ///< for inject_stall_every
    Stats stats_;
    // Introspection plane (declaration order matters: the ctor init list
    // builds timeseries_/slo_ from options_).
    obs::Timeseries timeseries_;
    obs::SloTracker slo_;
    double start_sim_s_ = 0.0;
    double next_sample_s_ = 0.0;
    double slo_alarm_ready_s_ = 0.0;  ///< cooldown gate
};

}  // namespace press::control
