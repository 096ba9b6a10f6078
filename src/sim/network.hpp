// Synchronous message-passing network over an undirected Graph.
//
// This is the LOCAL / CONGEST model: computation proceeds in rounds; in each
// round every node reads the messages its neighbors sent in the previous
// round, computes, and writes one (possibly empty) message per incident
// edge. Node callbacks only ever see last-round messages plus their own
// state, so execution order within a round is unobservable and the engine is
// free to run nodes serially (id order) or sharded across threads.
//
// The substrate splits into two layers (full architecture notes, including
// the slot plane, epoch tagging, swap delivery, and the parallel round
// engine, live in docs/ARCHITECTURE.md):
//
//  * Plan: an immutable NetworkTopology (sim/topology.hpp) — CSR slot
//    offsets, peer-slot permutation, shard partition — planned once per
//    graph shape and shared by shared_ptr.
//
//  * Run state: this class — the message buffer plane(s), slab arenas,
//    epoch counter, round count, audit, and thread pool. Constructible from
//    a cached plan, O(1)-resettable (reset()) and rebindable to a new graph
//    (rebind()) without replanning; NetworkPool (sim/pool.hpp) arenas both.
//
// The round hot path is allocation-free: every slot is a 16 B NarrowSlot
// (one inline field, wider payloads spill to a per-shard MessageSlab), slot
// validity is epoch-tagged (no clear sweeps), and delivery is a
// buffer-pointer swap through the peer
// permutation — or, for drain-free leases on PlaneMode::kSingle, a single
// plane whose slot ownership alternates with round parity (no swap, half
// the plane memory; see docs/ARCHITECTURE.md "Plane modes"). Serial and
// sharded execution are bit-identical in both modes.
#pragma once

#include <atomic>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/cancel.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/slab.hpp"
#include "sim/thread_pool.hpp"
#include "sim/topology.hpp"

namespace dec {

class SyncNetwork;

/// Epoch value that can never tag a slot (begin_round renormalizes epochs
/// long before they reach it): disables the single-plane read-after-write
/// hazard check on double-plane boxes without costing a mode branch on the
/// hot path.
inline constexpr std::uint32_t kNoHazardEpoch = 0xffffffffu;

/// By-value read view of one slot's payload (empty/size/at/fields).
class NarrowView {
 public:
  NarrowView() = default;
  NarrowView(const std::int64_t* data, std::size_t n) : data_(data), n_(n) {}

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::int64_t at(std::size_t i) const {
    DEC_REQUIRE(i < n_, "message field index out of range");
    return data_[i];
  }
  std::span<const std::int64_t> fields() const { return {data_, n_}; }

 private:
  const std::int64_t* data_ = nullptr;
  std::size_t n_ = 0;
};

/// Read-only view of one node's incoming messages for the current round:
/// entry i is what g.neighbors(v)[i] sent last round, empty when its epoch
/// tag is stale. operator[] returns a view BY VALUE.
///
/// Addressing is uniform — entry i reads buf_[map_[i]], with the round's
/// base slot folded into buf_ at construction. Peer-delivered rounds
/// (double planes, odd single-plane rounds) pass the plane base and the
/// node's peer-permutation slice; direct rounds (even single-plane rounds)
/// pass the node's first slot and the topology's tiny iota map. A slot
/// tagged with the WRITE epoch on a single plane means the program wrote
/// this entry's outbox slot before reading the inbox entry — that
/// read-after-write hazard throws instead of returning the node's own
/// message; on double planes hazard_ is kNoHazardEpoch and the check is one
/// never-taken compare on the stale path only.
///
/// quiet() is a conservative "no mail" bit (docs/ARCHITECTURE.md "Quiet
/// inboxes"): when it returns true every entry reads empty this round, so a
/// program may skip the port scan. It may return false for an empty inbox
/// (a dense delivery, an aliased 8-bit tag), never true for one with mail.
class NarrowInbox {
 public:
  NarrowView operator[](std::size_t i) const;  // defined after SyncNetwork
  std::size_t size() const { return n_; }
  bool quiet() const {
    return mail_ != nullptr && mail_[v_] != static_cast<std::uint8_t>(epoch_);
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NarrowView;
    using reference = NarrowView;
    using difference_type = std::ptrdiff_t;

    const_iterator(const NarrowInbox* box, std::size_t i) : box_(box), i_(i) {}
    NarrowView operator*() const { return (*box_)[i_]; }
    const_iterator& operator++() { ++i_; return *this; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const NarrowInbox* box_;
    std::size_t i_;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, n_}; }

 private:
  friend class SyncNetwork;
  NarrowInbox(const SyncNetwork* net, const NarrowSlot* buf,
              const std::uint32_t* map, std::size_t n, std::uint32_t epoch,
              NodeId v, const std::uint8_t* mail, std::uint32_t base = 0,
              std::uint32_t hazard = kNoHazardEpoch)
      : net_(net), buf_(buf), map_(map), n_(n), epoch_(epoch), base_(base),
        hazard_(hazard), v_(v), mail_(mail) {}

  const SyncNetwork* net_;    // resolves slab spills of multi-field payloads
  const NarrowSlot* buf_;     // plane base + round base slot
  const std::uint32_t* map_;  // peer permutation slice / iota map
  std::size_t n_;
  std::uint32_t epoch_;
  std::uint32_t base_ = 0;  // global-index reconstruction (spill path only)
  std::uint32_t hazard_ = kNoHazardEpoch;  // write epoch on a single plane
  NodeId v_ = 0;
  const std::uint8_t* mail_;  // per-node read tags; null = all mail
};

/// Write proxy for one outbox slot (returned BY VALUE by
/// NarrowOutbox::operator[]): assign/push/clear; exceeding the lease's
/// declared width
/// throws an actionable error, never truncates. The second field of a slot
/// moves the payload into an index-addressed slab block of exactly the
/// declared width, so a declared-1 lease never touches the slab at all.
class NarrowRef {
 public:
  void assign(std::initializer_list<std::int64_t> init) {
    clear();
    for (const std::int64_t v : init) push(v);
  }
  void push(std::int64_t v);  // defined after SyncNetwork
  void clear() { slot_->set_count(0); }

 private:
  friend class NarrowOutbox;
  NarrowRef(NarrowSlot* slot, MessageSlab* slab, const SyncNetwork* net,
            NodeId v, std::uint32_t slot_index, int declared)
      : slot_(slot), slab_(slab), net_(net), v_(v), slot_index_(slot_index),
        declared_(declared) {}

  NarrowSlot* slot_;
  MessageSlab* slab_;        // owning shard's write-plane arena
  const SyncNetwork* net_;   // error context (component, round)
  NodeId v_;
  std::uint32_t slot_index_;
  int declared_;
};

/// Write view of one node's outgoing slots for the current round. Slots are
/// lazily stamped on first touch (the stamp doubles as the clear), so
/// untouched slots cost nothing and there is no per-round clear sweep.
/// Addressing mirrors NarrowInbox. Iteration yields proxies by value —
/// range-for with `auto&&`.
class NarrowOutbox {
 public:
  NarrowRef operator[](std::size_t i) {
    const std::uint32_t off = map_[i];
    NarrowSlot& s = buf_[off];
    const std::uint32_t idx = base_ + off;  // global; NarrowRef error context
    if (s.epoch() != epoch_) {
      s.stamp(epoch_);
      touched_->push_back(idx);
    }
    return NarrowRef{&s, slab_, net_, v_, idx, declared_};
  }

  std::size_t size() const { return n_; }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NarrowRef;
    using reference = NarrowRef;
    using difference_type = std::ptrdiff_t;

    iterator(NarrowOutbox* box, std::size_t i) : box_(box), i_(i) {}
    NarrowRef operator*() const { return (*box_)[i_]; }
    iterator& operator++() { ++i_; return *this; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    NarrowOutbox* box_;
    std::size_t i_;
  };

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, n_}; }

 private:
  friend class SyncNetwork;
  NarrowOutbox(NarrowSlot* buf, const std::uint32_t* map, std::uint32_t base,
               MessageSlab* slab, const SyncNetwork* net, NodeId v,
               std::size_t n, std::uint32_t epoch,
               std::vector<std::uint32_t>* touched, int declared)
      : buf_(buf), map_(map), base_(base), slab_(slab), net_(net), v_(v),
        n_(n), epoch_(epoch), touched_(touched), declared_(declared) {}

  NarrowSlot* buf_;           // plane base + round base slot
  const std::uint32_t* map_;  // peer permutation slice / iota map
  std::uint32_t base_;        // global-index reconstruction
  MessageSlab* slab_;
  const SyncNetwork* net_;
  NodeId v_;
  std::size_t n_;
  std::uint32_t epoch_;
  std::vector<std::uint32_t>* touched_;
  int declared_;
};

class SyncNetwork {
 public:
  /// Epoch at which begin_round renormalizes every slot tag (see
  /// renormalize_epochs). The 2^28 bumps of headroom below kNoHazardEpoch
  /// could only be used up by that many consecutive round-less resets.
  static constexpr std::uint32_t kEpochRenormalizeAt = 0xf0000000u;

  /// Plan-and-run convenience: plans a fresh topology for `g`. `component`
  /// names the ledger line that rounds are charged to; `ledger` may be null
  /// (rounds still counted locally). `num_threads` > 1 enables the parallel
  /// round engine (pass resolve_num_threads(0) for hardware concurrency).
  /// `plan` declares the protocol's max per-message field count and the
  /// plane mode (structural — immutable for this run state's lifetime).
  explicit SyncNetwork(const Graph& g, RoundLedger* ledger = nullptr,
                       std::string component = "network", int num_threads = 1,
                       SlotPlan plan = {});

  /// Build run state on an existing (typically cached) plan. `topo` must fit
  /// `g` (same shape — see NetworkTopology::matches); the shard count is the
  /// plan's.
  SyncNetwork(const Graph& g, std::shared_ptr<const NetworkTopology> topo,
              RoundLedger* ledger = nullptr, std::string component = "network",
              SlotPlan plan = {});

  /// Return to the just-constructed state in O(num_shards): one epoch bump
  /// invalidates every slot of both buffer planes (including the last
  /// delivered inbox), slabs rewind, rounds/audit clear. No slot sweeps, no
  /// replanning, no allocation.
  void reset();

  /// reset() plus re-pointing the ledger charge line (pooled networks are
  /// reused across solvers with different ledgers/components).
  void reset(RoundLedger* ledger, std::string component);

  /// Re-target this run state at a different graph/plan, reusing buffer and
  /// shard storage (no allocation when the new plan needs no more slots or
  /// shards than this state ever had). O(num_slots) when the plan changes
  /// and O(num_shards) when `topo` is the plan already bound (degenerates to
  /// reset()).
  void rebind(const Graph& g, std::shared_ptr<const NetworkTopology> topo,
              RoundLedger* ledger = nullptr, std::string component = "network");

  /// rebind() that also re-declares the per-lease slot plan. The plane MODE
  /// is structural and must equal this run state's (the pool filters by mode
  /// before ever calling this); only the declared max field count may change
  /// between leases.
  void rebind(const Graph& g, std::shared_ptr<const NetworkTopology> topo,
              RoundLedger* ledger, std::string component, SlotPlan plan);

  /// Execute one synchronous round and charge it to the ledger: `fn(v,
  /// inbox, outbox)` runs for every node with both boxes sized degree(v)
  /// (outbox slots read as empty until written). `fn` stays a concrete
  /// callable — no type erasure on the per-node call. With num_threads > 1,
  /// `fn` is invoked concurrently from pool workers and must confine writes
  /// to its own node's state and outbox.
  template <class F>
  void round_fast(F&& fn) {
    static_assert(
        std::is_invocable_v<F&, NodeId, const NarrowInbox&, NarrowOutbox&>,
        "node program must accept (NodeId, const NarrowInbox&, "
        "NarrowOutbox&)");
    begin_round();
    try {
      for_each_shard([&](int shard) { run_shard(fn, shard); });
    } catch (...) {
      abort_round();  // roll back to the pre-round state, then rethrow
      throw;
    }
    finish_round();
  }

  /// Read-only visit of the messages delivered by the last executed round:
  /// `fn(v, inbox)` runs for every node, nothing is sent, no round is
  /// charged. Receiving plus local computation is free in the round model;
  /// pipelined solvers use this to consume their final round's replies.
  /// Runs sharded under the parallel engine with the same confinement rules
  /// as round_fast. Throws on a single-plane lease: the next round's writes
  /// land IN the delivered slots, so there is no stable delivered plane to
  /// re-read — a pipelined (drain-using) protocol needs PlaneMode::kDouble.
  template <class F>
  void drain_fast(F&& fn) {
    static_assert(std::is_invocable_v<F&, NodeId, const NarrowInbox&>,
                  "drain program must accept (NodeId, const NarrowInbox&)");
    if (mode_ == PlaneMode::kSingle) throw_single_plane_drain();
    auto visit = [&](int shard) {
      const NodeId vend = shard_begin_[static_cast<std::size_t>(shard) + 1];
      for (NodeId v = shard_begin_[static_cast<std::size_t>(shard)]; v < vend;
           ++v) {
        const std::size_t lo = offsets_[static_cast<std::size_t>(v)];
        const std::size_t deg = offsets_[static_cast<std::size_t>(v) + 1] - lo;
        const NarrowInbox in(this, in_, peer_slot_ + lo, deg, epoch_, v,
                             read_mail());
        fn(v, in);
      }
    };
    for_each_shard(visit);
  }

  /// Install (or clear, with null) the cooperative cancellation token.
  /// Checked once per round at the barrier (top of begin_round, before any
  /// round state is touched): a tripped token throws SolverAborted and
  /// leaves the network in its exact post-last-round state — the previous
  /// round's delivery still readable, no abort_round needed. The token must
  /// outlive its installation; pooled leases clear it on release.
  void set_cancel(CancelToken* cancel) { cancel_ = cancel; }
  CancelToken* cancel() const { return cancel_; }

  /// Rounds executed so far on this network (since construction or the last
  /// reset()/rebind()).
  std::int64_t rounds_executed() const { return rounds_; }

  /// Rounds and drains that ran every shard on the calling thread although
  /// this network has more than one (see kInlineRoundItems), over the same
  /// span as rounds_executed().
  std::int64_t inline_rounds() const { return inline_rounds_; }

  /// Adaptive engine width. A sharded round's fixed cost (the pool
  /// barrier, and the cache lines of the network and shard state that move
  /// between cores) is a few microseconds and varies with where the host
  /// places the threads. A round whose work is not much larger than that
  /// gains little from sharding and takes on that variance in full, so it
  /// runs its shards in order on the calling thread instead. The work
  /// estimate is one item per node plus one per message delivered to this
  /// round; below this many items the round runs inline. Which thread runs
  /// a shard is unobservable, so outputs, rounds and audits are unchanged.
  static constexpr std::size_t kInlineRoundItems = 4096;

  /// Process-wide override of kInlineRoundItems; 0 sends every round of a
  /// sharded network through the pool (tests of the parallel engine, whose
  /// graphs are small, use that).
  static void set_inline_round_items(std::size_t items) {
    inline_round_items_.store(items, std::memory_order_relaxed);
  }
  static std::size_t inline_round_items() {
    return inline_round_items_.load(std::memory_order_relaxed);
  }

  const CongestAudit& audit() const { return audit_; }
  const Graph& graph() const { return *g_; }
  const std::shared_ptr<const NetworkTopology>& topology() const {
    return topo_;
  }
  int num_threads() const { return topo_->num_shards(); }

  /// Heap bytes of this run state: the message buffer planes that exist (a
  /// single-plane state never sizes its `b` plane, so it counts exactly
  /// one), the two 1 B per-node mail tag arrays, per-shard spill arenas and
  /// touched lists. Excludes the shared plan
  /// (NetworkTopology::memory_bytes) and the graph (Graph::memory_bytes) —
  /// the three together are the per-node budget docs/ARCHITECTURE.md
  /// "Graph storage & scale" tracks.
  std::size_t memory_bytes() const {
    std::size_t bytes =
        (buf_a_.capacity() + buf_b_.capacity()) * sizeof(NarrowSlot) +
        mail_a_.capacity() + mail_b_.capacity();
    for (const auto& sh : shards_) {
      bytes += sh.slab_a.capacity_bytes() + sh.slab_b.capacity_bytes();
      bytes += sh.touched.capacity() * sizeof(std::uint32_t);
    }
    bytes += shard_slot_begin_.capacity() * sizeof(std::size_t);
    return bytes;
  }

  /// Plane mode (structural, fixed at construction): kDouble swaps a plane
  /// pair at the barrier, kSingle owns one plane and alternates slot
  /// ownership with round parity (drain banned).
  PlaneMode plane_mode() const { return mode_; }
  /// Ledger component this run state charges (error-message context).
  const std::string& component() const { return component_; }
  /// Declared max per-message field count of the current lease.
  int declared_fields() const { return declared_fields_; }

  // Slot-plane introspection (tests and tools).
  std::size_t num_slots() const { return topo_->num_slots(); }
  std::size_t slot(NodeId v, std::size_t i) const {
    return offsets_[static_cast<std::size_t>(v)] + i;
  }
  std::size_t peer_slot(std::size_t s) const { return peer_slot_[s]; }

  /// Current epoch counter (tests of the renormalization).
  std::uint32_t epoch() const { return epoch_; }
  /// Test hook: reset(), then advance the epoch counter to `e` (never
  /// backwards), so a test can run rounds across the kEpochRenormalizeAt
  /// renormalization without first executing ~4G of them.
  void seed_epoch_for_testing(std::uint32_t e);

 private:
  friend class NarrowInbox;  // resolve_spill, throw_single_plane_hazard
  friend class NarrowRef;    // throw_width_violation

  void begin_round();
  void finish_round();
  void abort_round();
  void renormalize_epochs();
  void bind_ledger(RoundLedger* ledger, std::string component);
  void bind_plan();  // (re)size buffers/shards for topo_
  void point_planes();  // in_/out_ per mode_, parity even

  /// Run body(shard) for every shard: through the pool, or in shard order
  /// on the calling thread when there is no pool or the round is light.
  template <class Body>
  void for_each_shard(Body&& body) {
    const int num_shards = topo_->num_shards();
    const std::size_t items =
        static_cast<std::size_t>(topo_->num_nodes()) + delivered_;
    if (pool_ != nullptr && num_shards > 1 && items >= inline_round_items()) {
      // The retained pool may carry more workers than the current plan has
      // shards (it only ever grows across rebinds); surplus workers no-op.
      pool_->run([&](int shard) {
        if (shard < num_shards) body(shard);
      });
      return;
    }
    for (int shard = 0; shard < num_shards; ++shard) body(shard);
    if (num_shards > 1) ++inline_rounds_;
  }

  /// Read tags for this round's inboxes: null when the delivery being read
  /// came from a dense shard that skipped stamping (every quiet() is false).
  const std::uint8_t* read_mail() const {
    return in_all_mail_ ? nullptr : mail_in_;
  }
  /// Stamp the receivers of this shard's touched slots in the write tags
  /// (after the shard's node loop; out of line, sparse rounds only).
  void stamp_mail(const std::vector<std::uint32_t>& touched);

  /// Actionable declared-width violation: names the protocol component,
  /// round, node, slot, and declared-vs-actual field count.
  [[noreturn]] void throw_width_violation(NodeId v, std::size_t slot,
                                          int declared, int actual) const;

  /// Actionable drain-on-single-plane error (component, round context).
  [[noreturn]] void throw_single_plane_drain() const;

  /// Actionable single-plane read-after-write hazard: node v read inbox
  /// entry i after writing the outbox slot that shares its storage.
  [[noreturn]] void throw_single_plane_hazard(NodeId v, std::size_t entry) const;

  /// Resolve a slot's spilled payload in the plane currently being READ.
  /// The owning shard comes from the slot index (shard_slot_begin_); the
  /// read plane's slab is the one begin_round did NOT rewind, so the
  /// previous round's blocks are intact both mid-round and during a drain.
  /// On a single plane the writer of the previous round is the slot's peer
  /// in even rounds (odd-round writes go through the permutation), so the
  /// shard lookup first maps the slot to the writing side.
  const std::int64_t* resolve_spill(std::size_t slot,
                                    std::uint32_t spill) const {
    if (mode_ == PlaneMode::kSingle && out_is_a_) slot = peer_slot_[slot];
    std::size_t s = 0;
    while (shard_slot_begin_[s + 1] <= slot) ++s;
    const Shard& sh = shards_[s];
    const MessageSlab& slab = out_is_a_ ? sh.slab_b : sh.slab_a;
    return slab.at_index(spill);
  }

  // run_shard_impl's compile-time plane/parity variant: the double-plane
  // instantiation constructs its boxes with literal kNoHazardEpoch, so after
  // inlining the single-plane tests in the box accessors constant-fold away
  // and the loop compiles to exactly the two-plane hot path.
  enum class ShardMode { kDoublePlane, kSingleEven, kSingleOdd };

  template <class F>
  void run_shard(F& fn, int shard) {
    if (mode_ != PlaneMode::kSingle) {
      run_shard_impl<ShardMode::kDoublePlane>(fn, shard);
    } else if (out_is_a_) {
      run_shard_impl<ShardMode::kSingleEven>(fn, shard);
    } else {
      run_shard_impl<ShardMode::kSingleOdd>(fn, shard);
    }
  }

  template <ShardMode kMode, class F>
  void run_shard_impl(F& fn, int shard) {
    Shard& sh = shards_[static_cast<std::size_t>(shard)];
    const std::uint32_t write_epoch = epoch_;
    const std::uint32_t read_epoch = epoch_ - 1;
    const NodeId vend = shard_begin_[static_cast<std::size_t>(shard) + 1];
    MessageSlab* write_slab = out_is_a_ ? &sh.slab_a : &sh.slab_b;
    // Single-plane parity mapping (docs/ARCHITECTURE.md "Plane modes"): in
    // even rounds (out_is_a_) a node reads AND writes its own CSR slots; in
    // odd rounds both go through the peer permutation. Either way each slot
    // has exactly one accessing node per round, and last round's write sits
    // exactly where this round's read looks — delivery without a swap.
    constexpr bool single = kMode != ShardMode::kDoublePlane;
    constexpr bool in_direct = kMode == ShardMode::kSingleEven;
    constexpr bool out_peer = kMode == ShardMode::kSingleOdd;
    const std::uint32_t hazard = single ? write_epoch : kNoHazardEpoch;
    const std::uint8_t* mail = read_mail();
    for (NodeId v = shard_begin_[static_cast<std::size_t>(shard)]; v < vend;
         ++v) {
      const std::size_t lo = offsets_[static_cast<std::size_t>(v)];
      const std::size_t deg = offsets_[static_cast<std::size_t>(v) + 1] - lo;
      // Box addressing is always buf[map[i]] with the round's base slot
      // folded into buf; the compile-time mode only picks each box's
      // (base, map) pair — the node's first slot with the L1-resident iota
      // map for direct rounds, base 0 with the node's peer-permutation
      // slice for delivered ones — so the accessors carry no mode test, no
      // per-access add, and the selects below fold per instantiation.
      const std::uint32_t* in_map = in_direct ? iota_ : peer_slot_ + lo;
      const std::size_t in_base = in_direct ? lo : 0;
      const std::uint32_t* out_map = out_peer ? peer_slot_ + lo : iota_;
      const std::size_t out_base = out_peer ? 0 : lo;
      const NarrowInbox in(this, in_ + in_base, in_map, deg, read_epoch, v,
                           mail, static_cast<std::uint32_t>(in_base), hazard);
      NarrowOutbox out(out_ + out_base, out_map,
                       static_cast<std::uint32_t>(out_base), write_slab, this,
                       v, deg, write_epoch, &sh.touched, declared_fields_);
      fn(v, in, out);
    }
    // Audit this shard's sent slots while still on the worker; merged (max /
    // sum, order-independent) at the barrier. The declared width was already
    // enforced in NarrowRef::push, before any slab traffic.
    for (const std::uint32_t s : sh.touched) {
      const NarrowSlot& slot = out_[s];
      const std::uint32_t c = slot.count();
      if (c <= 1) {
        sh.audit.observe(std::span<const std::int64_t>(&slot.payload_, c));
      } else {
        sh.audit.observe(std::span<const std::int64_t>(
            write_slab->at_index(slot.spill()), c));
      }
    }
    // Quiet-inbox tags: a shard that wrote more than 1/8 of its slots flags
    // the delivery "all mail" instead of stamping, so dense rounds pay this
    // one compare per shard and nothing per write.
    const std::size_t shard_slots =
        shard_slot_begin_[static_cast<std::size_t>(shard) + 1] -
        shard_slot_begin_[static_cast<std::size_t>(shard)];
    if (sh.touched.size() > shard_slots / 8) {
      sh.all_mail = true;
    } else {
      stamp_mail(sh.touched);
    }
  }

  /// Owning node of a global slot index (binary search over the CSR
  /// offsets). Error-path only — never on the hot path.
  NodeId node_of_slot(std::size_t slot) const;

  struct Shard {
    MessageSlab slab_a, slab_b;  // spill arenas for buf_a_ / buf_b_ slots
    std::vector<std::uint32_t> touched;
    CongestAudit audit;
    bool all_mail = false;  // this round's writes were dense: no stamps
  };

  const Graph* g_;
  std::shared_ptr<const NetworkTopology> topo_;
  // Hot-path views into *topo_ (refreshed by bind_plan).
  const std::size_t* offsets_ = nullptr;
  const std::uint32_t* peer_slot_ = nullptr;
  const std::uint32_t* iota_ = nullptr;  // iota map (direct rounds)
  const NodeId* shard_begin_ = nullptr;

  RoundLedger* ledger_ = nullptr;
  std::optional<RoundLedger::Counter> counter_;  // cached ledger slot
  CancelToken* cancel_ = nullptr;  // not owned; null = no cancellation
  std::int64_t rounds_ = 0;
  std::int64_t inline_rounds_ = 0;
  // Messages the last finished round wrote, i.e. the delivery the next
  // round (or drain) reads: the message half of for_each_shard's estimate.
  std::size_t delivered_ = 0;
  static inline std::atomic<std::size_t> inline_round_items_{
      kInlineRoundItems};
  CongestAudit audit_;
  // Write epoch of the round in progress. Monotonic across reset()/rebind()
  // (never rewound past construction), so stale slot tags from earlier runs
  // can never equal a future read epoch — until the 32-bit counter wraps,
  // which a pooled run state doing service-sized rounds (~3 µs) would reach
  // in hours. begin_round therefore renormalizes every tag once the counter
  // passes kEpochRenormalizeAt (one O(slots) sweep per ~2^31 bumps).
  std::uint32_t epoch_ = 0;

  // In PlaneMode::kSingle only the `a` plane is sized and in_/out_ both
  // point at it; out_is_a_ then tracks round parity (true ⟺ the round in
  // progress is even).
  std::vector<NarrowSlot> buf_a_, buf_b_;
  NarrowSlot* in_ = nullptr;   // delivered messages of the previous round
  NarrowSlot* out_ = nullptr;  // slots being written this round
  bool out_is_a_ = true;
  // Quiet-inbox tags, one byte per node and plane role, swapped with the
  // planes: a receiver's tag holds the low 8 bits of the write epoch of the
  // last round that stamped a message to it. A tag that differs from the
  // read epoch proves an empty inbox; a stale tag can only alias the epoch
  // (a false positive). in_all_mail_ marks a delivery whose writers skipped
  // stamping, so none of its inboxes read quiet.
  std::vector<std::uint8_t> mail_a_, mail_b_;
  std::uint8_t* mail_in_ = nullptr;
  std::uint8_t* mail_out_ = nullptr;
  bool in_all_mail_ = false;
  // A mid-round abort on a single plane has already overwritten some of last
  // round's deliveries in place, so the pre-round state is unrecoverable;
  // the network poisons itself and the next begin_round throws until
  // reset(). Barrier-point aborts (cancellation, begin_round fault points)
  // never touch a slot and never poison.
  bool poisoned_ = false;

  PlaneMode mode_ = PlaneMode::kDouble;  // structural; never changes
  int declared_fields_ = 1;              // per-lease declared max width
  std::string component_;                // retained for error messages
  // Global slot index at each shard's first slot (num_shards + 1 entries);
  // lets spill resolution find the owning shard's slab.
  std::vector<std::size_t> shard_slot_begin_;

  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> pool_;  // null in serial mode
};

// Defined here (not in-class) because they need the complete SyncNetwork.

inline NarrowView NarrowInbox::operator[](std::size_t i) const {
  const std::uint32_t off = map_[i];
  const NarrowSlot& s = buf_[off];
  if (s.epoch() != epoch_) {
    if (s.epoch() == hazard_) net_->throw_single_plane_hazard(v_, i);
    return {};
  }
  const std::uint32_t c = s.count();
  if (c <= 1) return {&s.payload_, c};
  return {net_->resolve_spill(base_ + off, s.spill()), c};
}

inline void NarrowRef::push(std::int64_t v) {
  const std::uint32_t c = slot_->count();
  // Enforce the declared width BEFORE any slab traffic, so an overflowing
  // program throws without corrupting the spill arena.
  if (static_cast<int>(c) >= declared_) {
    net_->throw_width_violation(v_, slot_index_, declared_,
                                static_cast<int>(c) + 1);
  }
  if (c == 0) {
    slot_->payload_ = v;
  } else {
    if (c == 1) {
      // Second field: move inline payload into a slab block of exactly the
      // declared width (allocated once; never grown).
      const std::uint32_t idx =
          slab_->allocate_index(static_cast<std::size_t>(declared_));
      slab_->at_index(idx)[0] = slot_->payload_;
      slot_->set_spill(idx);
    }
    slab_->at_index(slot_->spill())[c] = v;
  }
  slot_->set_count(c + 1);
}

}  // namespace dec
