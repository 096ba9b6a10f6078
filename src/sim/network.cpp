#include "sim/network.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>

#include "testing/fault_injection.hpp"

namespace dec {

namespace {

// Shared plan validation for construction and per-lease rebind: the
// declared width sizes the spill blocks, and the 8-bit slot count must hold
// it.
void validate_plan(const SlotPlan& plan) {
  DEC_REQUIRE(plan.max_fields >= 1 &&
                  plan.max_fields <= static_cast<int>(NarrowSlot::kMaxFields),
              "slot plan requires declared max_fields in [1, 255]");
}

}  // namespace

SyncNetwork::SyncNetwork(const Graph& g, RoundLedger* ledger,
                         std::string component, int num_threads, SlotPlan plan)
    : SyncNetwork(g, NetworkTopology::plan(g, num_threads), ledger,
                  std::move(component), plan) {}

SyncNetwork::SyncNetwork(const Graph& g,
                         std::shared_ptr<const NetworkTopology> topo,
                         RoundLedger* ledger, std::string component,
                         SlotPlan plan)
    : g_(&g), topo_(std::move(topo)) {
  DEC_REQUIRE(topo_ != nullptr, "null topology");
  DEC_REQUIRE(topo_->matches(g), "topology does not fit the graph");
  validate_plan(plan);
  mode_ = plan.mode;
  declared_fields_ = plan.max_fields;
  bind_ledger(ledger, std::move(component));
  bind_plan();
}

void SyncNetwork::bind_ledger(RoundLedger* ledger, std::string component) {
  component_ = std::move(component);  // retained for error messages
  ledger_ = ledger;
  counter_.reset();
  if (ledger_ != nullptr) {
    counter_.emplace(ledger_->counter(component_));
  }
}

// Fit the run state to topo_: size the buffer plane(s) and the shard set.
// Reuses existing vector capacity — a pooled network that has seen a larger
// plan allocates nothing here. Stale slots keep their old epoch tags (always
// below any future read epoch, so they read as empty) and may hold stale
// spill indices; the first-touch stamp clears those before any use, exactly
// as it does across ordinary rounds.
void SyncNetwork::bind_plan() {
  offsets_ = topo_->offsets().data();
  peer_slot_ = topo_->peer_slot().data();
  iota_ = topo_->iota_map().data();
  shard_begin_ = topo_->shard_begin().data();

  // A single-plane state sizes only the `a` plane — that IS the memory win
  // — and in_/out_ both point at it (point_planes).
  const std::size_t slots = topo_->num_slots();
  buf_a_.resize(slots);
  if (mode_ == PlaneMode::kDouble) buf_b_.resize(slots);
  // Both modes keep two tag arrays: this round's stamps must not land in
  // the tags other shards are still reading. Stale tags can only read as
  // false positives, so a rebind leaves them as they are.
  mail_a_.resize(static_cast<std::size_t>(topo_->num_nodes()));
  mail_b_.resize(static_cast<std::size_t>(topo_->num_nodes()));
  point_planes();

  const int num_shards = topo_->num_shards();
  if (static_cast<int>(shards_.size()) != num_shards) {
    shards_.resize(static_cast<std::size_t>(num_shards));
  }
  // The thread pool only ever grows: a rebind to a plan with fewer shards
  // (e.g. a tiny per-phase game clamped to n + 1) keeps the existing
  // workers parked and dispatches fewer shard tasks, instead of tearing OS
  // threads down and respawning them on the next large plan — respawn churn
  // is exactly the construction cost the arena exists to amortize.
  if (num_shards > 1 &&
      (pool_ == nullptr || pool_->num_threads() < num_shards)) {
    pool_ = std::make_unique<ThreadPool>(num_shards);
  }
  // Slot -> shard boundaries, used by spill resolution. Slots carry slab
  // indices, not bindings; the outbox hands each write the executing
  // shard's arena directly.
  shard_slot_begin_.resize(static_cast<std::size_t>(num_shards) + 1);
  for (int s = 0; s <= num_shards; ++s) {
    shard_slot_begin_[static_cast<std::size_t>(s)] =
        offsets_[static_cast<std::size_t>(shard_begin_[s])];
  }
  reset();
}

// Restore the canonical plane orientation: out_ is the `a` plane, parity
// even. In double mode this undoes any odd number of swaps a previous run
// left behind (the planes are symmetric, but the slab-parity bookkeeping is
// not once a single flag tracks both); in single mode both pointers share
// the one plane and the flag simply restarts the parity at even.
void SyncNetwork::point_planes() {
  out_ = buf_a_.data();
  in_ = mode_ == PlaneMode::kDouble ? buf_b_.data() : buf_a_.data();
  out_is_a_ = true;
  mail_out_ = mail_a_.data();
  mail_in_ = mail_b_.data();
}

void SyncNetwork::reset() {
  // One bump strands every tag either plane can carry: the last finished
  // round wrote epoch E (now sitting in the inbox plane), the next round
  // will read epoch E + 1 and write E + 2. Epochs never rewind (see the
  // header; renormalization keeps that true across the 32-bit range), so
  // slots from any earlier run stay unreadable. No sweep happens here:
  // service workers reset a lease per job.
  ++epoch_;
  rounds_ = 0;
  inline_rounds_ = 0;
  delivered_ = 0;
  audit_.reset();
  poisoned_ = false;
  point_planes();  // restart at parity even; pooled runs match fresh ones
  in_all_mail_ = false;  // nothing is live, so every tag may say quiet
  for (Shard& sh : shards_) {
    sh.slab_a.reset();
    sh.slab_b.reset();
    sh.touched.clear();
    sh.audit.reset();
    sh.all_mail = false;
  }
}

void SyncNetwork::reset(RoundLedger* ledger, std::string component) {
  bind_ledger(ledger, std::move(component));
  reset();
}

void SyncNetwork::rebind(const Graph& g,
                         std::shared_ptr<const NetworkTopology> topo,
                         RoundLedger* ledger, std::string component) {
  DEC_REQUIRE(topo != nullptr, "null topology");
  DEC_REQUIRE(topo->matches(g), "topology does not fit the graph");
  g_ = &g;
  bind_ledger(ledger, std::move(component));
  if (topo.get() == topo_.get()) {
    reset();  // same plan: nothing to re-fit
    return;
  }
  topo_ = std::move(topo);
  bind_plan();
}

void SyncNetwork::rebind(const Graph& g,
                         std::shared_ptr<const NetworkTopology> topo,
                         RoundLedger* ledger, std::string component,
                         SlotPlan plan) {
  validate_plan(plan);
  // The plane mode is structural — pooled leases filter by it before
  // adopting a parked run state, so a mismatch here is a pool bug, not a
  // user error.
  DEC_REQUIRE(plan.mode == mode_,
              "rebind cannot change a network's plane mode");
  declared_fields_ = plan.max_fields;
  rebind(g, std::move(topo), ledger, std::move(component));
}

void SyncNetwork::begin_round() {
  // Cancellation barrier: checked before any round state is touched, so an
  // abort here needs no rollback — the network still sits at its exact
  // post-last-round state. The fault point shares the barrier (throw at
  // round k, inject latency, trip the job's own token mid-phase).
  if (cancel_ != nullptr) cancel_->check();
  DEC_FAULT_POINT_CTX("network.round", cancel_);
  if (poisoned_) {
    DEC_REQUIRE(false,
                "round on a poisoned single-plane network: component '" +
                    component_ + "' aborted round " + std::to_string(rounds_) +
                    " after writing slots, overwriting last round's deliveries "
                    "in place — reset() (or release the lease) before reuse");
  }
  if (epoch_ >= kEpochRenormalizeAt) [[unlikely]] renormalize_epochs();
  ++epoch_;
  // The buffer about to be written was the inbox two rounds ago; its spill
  // arenas can be rewound now that that round's reads are long done. Stale
  // slots may hold spill indices into the rewound arena, but a stale slot is
  // stamped before first use and never read through an inbox.
  for (Shard& sh : shards_) {
    (out_is_a_ ? sh.slab_a : sh.slab_b).reset();
  }
}

// Restart the epoch counter before it can wrap. The live delivery — slots
// tagged epoch_, which the next round reads at epoch_ after the bump — is
// re-stamped to 1 with its count and spill index kept; every other slot is
// stale and goes to 0. epoch_ restarts at 1, so the next round reads 1 and
// writes 2: epoch 0 is still never a write epoch (abort_round relies on
// that), no tag exceeds the counter, and kNoHazardEpoch stays unreachable.
// The read-side mail tags follow the same rule in 8 bits: live tags become
// 1, the rest 0. One O(slots) pass over the planes per ~2^31 bumps.
void SyncNetwork::renormalize_epochs() {
  for (std::vector<NarrowSlot>* plane : {&buf_a_, &buf_b_}) {
    for (NarrowSlot& s : *plane) {
      s.header_ = s.epoch() == epoch_
                      ? (std::uint64_t{1} << 32) | (s.header_ & 0xffffffffu)
                      : 0;
    }
  }
  const auto live = static_cast<std::uint8_t>(epoch_);
  std::uint8_t* const end = mail_in_ + mail_a_.size();
  for (std::uint8_t* t = mail_in_; t != end; ++t) *t = *t == live ? 1 : 0;
  epoch_ = 1;
}

void SyncNetwork::seed_epoch_for_testing(std::uint32_t e) {
  reset();
  epoch_ = std::max(epoch_, e);
}

// A node program threw mid-round (DEC_CHECK is the library's failure mode).
// Undo the partial round so the network stays usable: un-stamp and empty
// every slot written this round (epoch 0 is never a write epoch, so the
// slots read as stale/empty and are stamped afresh on their next use), drop
// the per-shard audit/touched state, and rewind the epoch. The inbox buffer
// is untouched, so the previous round's delivery is still readable. Mail
// tags that finished shards already stamped stay: the retried round stamps
// the same array at the same epoch, and a stamp with no message behind it
// is only a false positive.
void SyncNetwork::abort_round() {
  bool touched_any = false;
  for (Shard& sh : shards_) {
    touched_any = touched_any || !sh.touched.empty();
    // Zeroing the header un-stamps the slot (epoch 0 is never a write
    // epoch) and drops count and spill index in one store.
    for (const std::uint32_t s : sh.touched) out_[s].header_ = 0;
    sh.touched.clear();
    sh.audit.reset();
    sh.all_mail = false;
  }
  --epoch_;
  // On a single plane the slots just un-stamped WERE last round's delivered
  // messages (this round's writes land in place); they are gone, so the
  // "exact post-last-round state" contract is unrecoverable. Poison instead
  // of failing silently: the next begin_round throws until reset(). Aborts
  // that never touched a slot (cancellation and fault points fire at the
  // barrier, before any write) leave the state exact and do not poison.
  if (mode_ == PlaneMode::kSingle && touched_any) poisoned_ = true;
}

void SyncNetwork::finish_round() {
  bool all_mail = false;
  delivered_ = 0;
  for (Shard& sh : shards_) {
    audit_.merge(sh.audit);
    sh.audit.reset();
    delivered_ += sh.touched.size();
    sh.touched.clear();
    all_mail = all_mail || sh.all_mail;
    sh.all_mail = false;
  }
  // Delivery: the peer permutation is baked into inbox reads, so handing the
  // written buffer to the readers is a pointer swap (a no-op on a single
  // plane, where both point at the one plane). The mail tags always swap.
  std::swap(in_, out_);
  std::swap(mail_in_, mail_out_);
  in_all_mail_ = all_mail;
  out_is_a_ = !out_is_a_;
  ++rounds_;
  if (counter_.has_value()) counter_->charge(1);
}

// The receiver of a written slot is the graph incidence at the writer's
// CSR slot: the slot itself, except on odd single-plane rounds, where
// writes land through the peer permutation (an involution). The receiver
// may sit in another shard that is still running its node loop, reading the
// OTHER tag array, so the stores are relaxed atomics; the round barrier
// orders them before the next round's reads.
void SyncNetwork::stamp_mail(const std::vector<std::uint32_t>& touched) {
  const Incidence* const inc = g_->incidences().data();
  const auto tag = static_cast<std::uint8_t>(epoch_);
  const bool through_peer = mode_ == PlaneMode::kSingle && !out_is_a_;
  for (const std::uint32_t s : touched) {
    const std::uint32_t w = through_peer ? peer_slot_[s] : s;
    std::atomic_ref<std::uint8_t>(
        mail_out_[static_cast<std::size_t>(inc[w].neighbor)])
        .store(tag, std::memory_order_relaxed);
  }
}

NodeId SyncNetwork::node_of_slot(std::size_t slot) const {
  const auto& offsets = topo_->offsets();
  // First node whose slot range ends past `slot`.
  const auto it =
      std::upper_bound(offsets.begin(), offsets.end(), slot);
  return static_cast<NodeId>((it - offsets.begin()) - 1);
}

void SyncNetwork::throw_width_violation(NodeId v, std::size_t slot,
                                        int declared, int actual) const {
  const std::string msg =
      "message wider than the protocol's declared slot plan: component '" +
      component_ + "' round " + std::to_string(rounds_) + ", node " +
      std::to_string(v) + " slot " + std::to_string(slot) + " reached " +
      std::to_string(actual) + " fields but the lease declared max_fields=" +
      std::to_string(declared) +
      " — raise the lease's declared max_fields (at most 255); the substrate "
      "never truncates";
  DEC_CHECK(false, msg);
  std::abort();  // unreachable: DEC_CHECK(false, ...) always throws
}

void SyncNetwork::throw_single_plane_drain() const {
  const std::string msg =
      "drain on a single-plane lease: component '" + component_ +
      "' after round " + std::to_string(rounds_) +
      " — a single plane overwrites last round's deliveries in place, so "
      "drain_fast has nothing stable to re-read; pipelined "
      "protocols that re-read deliveries need PlaneMode::kDouble";
  DEC_REQUIRE(false, msg);
  std::abort();  // unreachable: DEC_REQUIRE(false, ...) always throws
}

void SyncNetwork::throw_single_plane_hazard(NodeId v,
                                            std::size_t entry) const {
  const std::string msg =
      "single-plane read-after-write hazard: component '" + component_ +
      "' round " + std::to_string(rounds_) + ", node " + std::to_string(v) +
      " read inbox entry " + std::to_string(entry) +
      " after writing the outbox slot that shares its storage — single-plane "
      "node programs must read every inbox entry they need before writing "
      "the outbox (or use PlaneMode::kDouble)";
  DEC_CHECK(false, msg);
  std::abort();  // unreachable: DEC_CHECK(false, ...) always throws
}

}  // namespace dec
