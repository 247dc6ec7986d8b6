#include "src/vm/optimize.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "src/vm/passes.h"
#include "src/vm/verify.h"

namespace knit {
namespace {

constexpr int kWordSize = 4;

bool IsBinaryAlu(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDivS:
    case Op::kDivU:
    case Op::kModS:
    case Op::kModU:
    case Op::kShl:
    case Op::kShrS:
    case Op::kShrU:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kEq:
    case Op::kNe:
    case Op::kLtS:
    case Op::kLtU:
    case Op::kLeS:
    case Op::kLeU:
    case Op::kGtS:
    case Op::kGtU:
    case Op::kGeS:
    case Op::kGeU:
      return true;
    default:
      return false;
  }
}

bool IsUnaryAlu(Op op) {
  return op == Op::kNeg || op == Op::kBitNot || op == Op::kLogNot || op == Op::kSext8;
}

bool IsCommutative(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kMul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kEq:
    case Op::kNe:
      return true;
    default:
      return false;
  }
}

uint32_t FoldBinary(Op op, uint32_t x, uint32_t y) {
  int32_t sx = static_cast<int32_t>(x);
  int32_t sy = static_cast<int32_t>(y);
  switch (op) {
    case Op::kAdd:
      return x + y;
    case Op::kSub:
      return x - y;
    case Op::kMul:
      return x * y;
    case Op::kDivS:
      return sy == 0 ? 0 : static_cast<uint32_t>(sx / sy);
    case Op::kDivU:
      return y == 0 ? 0 : x / y;
    case Op::kModS:
      return sy == 0 ? 0 : static_cast<uint32_t>(sx % sy);
    case Op::kModU:
      return y == 0 ? 0 : x % y;
    case Op::kShl:
      return x << (y & 31);
    case Op::kShrS:
      return static_cast<uint32_t>(sx >> (y & 31));
    case Op::kShrU:
      return x >> (y & 31);
    case Op::kAnd:
      return x & y;
    case Op::kOr:
      return x | y;
    case Op::kXor:
      return x ^ y;
    case Op::kEq:
      return x == y ? 1 : 0;
    case Op::kNe:
      return x != y ? 1 : 0;
    case Op::kLtS:
      return sx < sy ? 1 : 0;
    case Op::kLtU:
      return x < y ? 1 : 0;
    case Op::kLeS:
      return sx <= sy ? 1 : 0;
    case Op::kLeU:
      return x <= y ? 1 : 0;
    case Op::kGtS:
      return sx > sy ? 1 : 0;
    case Op::kGtU:
      return x > y ? 1 : 0;
    case Op::kGeS:
      return sx >= sy ? 1 : 0;
    case Op::kGeU:
      return x >= y ? 1 : 0;
    default:
      return 0;
  }
}

uint32_t FoldUnary(Op op, uint32_t x) {
  switch (op) {
    case Op::kNeg:
      return 0u - x;
    case Op::kBitNot:
      return ~x;
    case Op::kLogNot:
      return x == 0 ? 1 : 0;
    case Op::kSext8:
      return static_cast<uint32_t>(static_cast<int32_t>(static_cast<int8_t>(x & 0xFF)));
    default:
      return 0;
  }
}

// ---- basic-block structure ------------------------------------------------------

// leaders[i] is true when instruction i starts a basic block: the entry, every
// jump target, and every instruction after a jump or a kRet.
std::vector<char> LeaderBitmap(const BytecodeFunction& function) {
  const int size = static_cast<int>(function.code.size());
  std::vector<char> leaders(function.code.size(), 0);
  auto mark = [&](int index) {
    if (index >= 0 && index < size) {
      leaders[index] = 1;
    }
  };
  mark(0);
  for (int i = 0; i < size; ++i) {
    const Insn& insn = function.code[i];
    if (IsJump(insn.op)) {
      mark(insn.a);
      mark(i + 1);
    } else if (insn.op == Op::kRet) {
      mark(i + 1);
    }
  }
  return leaders;
}

bool TouchesLocal(Op op) {
  return op == Op::kLoadLocal || op == Op::kStoreLocal || op == Op::kAddrLocal;
}

// The frame offsets named by a function's kLoadLocal/kStoreLocal/kAddrLocal
// instructions all lie in [lo, lo + span), so per-offset tables can be flat.
struct OffsetSpan {
  int lo = 0;
  int span = 0;
};

OffsetSpan LocalOffsets(const BytecodeFunction& function) {
  int lo = 0;
  int hi = -1;
  for (const Insn& insn : function.code) {
    if (TouchesLocal(insn.op)) {
      if (hi < lo) {
        lo = hi = insn.a;
      } else {
        lo = std::min(lo, insn.a);
        hi = std::max(hi, insn.a);
      }
    }
  }
  return OffsetSpan{lo, hi - lo + 1};
}

// Rebuilds code without kNop, remapping jump targets.
void CompactNops(BytecodeFunction& function) {
  std::vector<int> new_index(function.code.size() + 1, 0);
  int next = 0;
  for (size_t i = 0; i < function.code.size(); ++i) {
    new_index[i] = next;
    if (function.code[i].op != Op::kNop) {
      ++next;
    }
  }
  new_index[function.code.size()] = next;
  std::vector<Insn> out;
  out.reserve(static_cast<size_t>(next));
  for (size_t i = 0; i < function.code.size(); ++i) {
    if (function.code[i].op == Op::kNop) {
      continue;
    }
    Insn insn = function.code[i];
    if (IsJump(insn.op)) {
      insn.a = new_index[insn.a];
    }
    out.push_back(insn);
  }
  function.code = std::move(out);
}

// ---- local value numbering -------------------------------------------------------
//
// Two identical simulations run over the function: a counting pass (which VNs are
// consumed how often) and an emission pass. Both must create VNs in the same order
// and evolve the physical/lazy state of the symbolic stack identically; only the
// code emission differs.
//
// Cost contract: VNs are interned in a hash table, and a VN's cost, flags and
// read set are computed once, when it is created, from its operands. Per-index
// and per-local state lives in flat tables. The forward tables are flat lists of
// their live entries: a lookup or a store scrub walks those entries, and a
// snapshot copies them plus the per-local generations and the VNs that hold a
// slot, never one entry per VN ever created.

// Recompute costs above this are all "expensive": the caching rule below gives
// the same answer for every cost >= 4, so saturating keeps the emitted code and
// makes costs immune to overflow on exponentially shared expressions.
constexpr int kMaxCost = 1 << 20;

int AddCost(int x, int y) { return std::min(kMaxCost, x + y); }

struct VN {
  enum class K {
    kOpaque,     // value physically on the stack at block entry / a call result;
                 // keyed (a = original site index, b = stack position) so both
                 // passes assign identical ids
    kConst,      // a = value
    kSym,        // a = symbol index
    kAddrLocal,  // a = frame offset
    kLoadLocal,  // a = offset, b = size, gen
    kUnary,      // op(x)
    kBinary,     // op(x, y)
    kLoadMem,    // *(x), a = sext flag, b = size, gen
  };
  // Identity (with the block epoch it was created in):
  K k = K::kOpaque;
  Op op = Op::kNop;
  int32_t a = 0;
  int32_t b = 0;
  int x = -1;
  int y = -1;
  int gen = 0;
  int epoch = 0;
  // Derived from the operands when the VN is created:
  int cost = 1;                // instructions to recompute it, saturated at kMaxCost
  bool mem_dep = false;        // transitively contains a memory load
  bool has_opaque = false;     // transitively contains an opaque value (cannot be
                               // rematerialized -> never forwarded into lazy entries)
  bool reads_memory_state = false;  // mem_dep, or reads an escaped local
  std::vector<int> local_deps;  // sorted dense indices of the locals transitively read
  // Analysis state:
  int uses = 0;       // counted in pass 1
  int scratch = -1;   // frame slot caching the value (pass 2)
  int slot_pos = -1;  // position in LvnPass::slotted_ while scratch >= 0
};

bool SameIdentity(const VN& p, const VN& q) {
  return p.k == q.k && p.op == q.op && p.a == q.a && p.b == q.b && p.x == q.x && p.y == q.y &&
         p.gen == q.gen && p.epoch == q.epoch;
}

uint64_t IdentityHash(const VN& vn) {
  uint64_t h = 0;
  for (int32_t field : {static_cast<int32_t>(vn.k), static_cast<int32_t>(vn.op), vn.a, vn.b, vn.x,
                        vn.y, vn.gen, vn.epoch}) {
    h = (h ^ static_cast<uint32_t>(field)) * 0x9e3779b97f4a7c15ull;
  }
  return h ^ (h >> 32);
}

// A map from an (int, int) key to a VN, kept as a flat list of live entries so a
// snapshot copies exactly those.
class ForwardTable {
 public:
  struct Entry {
    int first;
    int second;
    int vn;
  };

  int Find(int first, int second) const {
    for (const Entry& e : entries_) {
      if (e.first == first && e.second == second) {
        return e.vn;
      }
    }
    return -1;
  }

  void Set(int first, int second, int vn) {
    for (Entry& e : entries_) {
      if (e.first == first && e.second == second) {
        e.vn = vn;
        return;
      }
    }
    entries_.push_back(Entry{first, second, vn});
  }

  // Drops every entry `drop` selects. Each entry is decided on its own, so the
  // walk order cannot matter.
  template <typename Pred>
  void EraseIf(Pred drop) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(), drop), entries_.end());
  }

  void Clear() { entries_.clear(); }

  const std::vector<Entry>& entries() const { return entries_; }

  void Assign(const std::vector<Entry>& entries) { entries_ = entries; }

 private:
  std::vector<Entry> entries_;
};

class LvnPass {
 public:
  explicit LvnPass(BytecodeFunction& function) : fn_(function) {}

  void Run() {
    const size_t size = fn_.code.size();
    depths_ = ComputeDepths(fn_);
    leader_ = LeaderBitmap(fn_);
    inherits_.assign(size, 0);
    snapshot_target_.assign(size, -1);
    ComputeInheritingLeaders();
    IndexLocals();
    Simulate(/*emit=*/false);
    Simulate(/*emit=*/true);
    for (Insn& insn : out_) {
      if (IsJump(insn.op)) {
        assert(index_map_[insn.a] >= 0);
        insn.a = index_map_[insn.a];
      }
    }
    fn_.code = std::move(out_);
    fn_.frame_size = RoundUp(frame_size_, kWordSize);
  }

 private:
  struct Entry {
    int vn;
    bool physical;
  };

  // Single-predecessor leaders inherit the predecessor's value-numbering state
  // (the predecessor dominates them). Two shapes:
  //  * fallthrough-only: no jump targets the leader and the preceding instruction
  //    falls through — inherit the linear-scan state as-is;
  //  * forward-jump-only: exactly one jump (from an earlier index) targets the
  //    leader and there is no fallthrough edge — snapshot the state at the jump
  //    and restore it at the leader.
  // Hot paths through inlined element chains alternate between both shapes; with
  // inheritance, loads of packet fields are eliminated across former component
  // boundaries — the global-CSE effect the paper gets from gcc on flattened source.
  void ComputeInheritingLeaders() {
    const int size = static_cast<int>(fn_.code.size());
    std::vector<int> jumps(fn_.code.size(), 0);
    std::vector<int> first_jump(fn_.code.size(), -1);
    for (int i = 0; i < size; ++i) {
      const Insn& insn = fn_.code[i];
      if (IsJump(insn.op) && insn.a >= 0 && insn.a < size && jumps[insn.a]++ == 0) {
        first_jump[insn.a] = i;
      }
    }
    for (int leader = 1; leader < size; ++leader) {
      if (!leader_[leader]) {
        continue;
      }
      const Insn& prev = fn_.code[leader - 1];
      bool has_fallthrough = prev.op != Op::kJmp && prev.op != Op::kRet &&
                             depths_[leader - 1] >= 0;
      if (has_fallthrough && jumps[leader] == 0) {
        inherits_[leader] = 1;
      } else if (!has_fallthrough && jumps[leader] == 1 && first_jump[leader] < leader) {
        snapshot_target_[first_jump[leader]] = leader;
      }
    }
  }

  // Gives every frame offset a local instruction names a dense index; the
  // per-local state (generations, escapes, homes, read sets) is indexed by it.
  void IndexLocals() {
    offsets_ = LocalOffsets(fn_);
    local_of_offset_.assign(static_cast<size_t>(offsets_.span), -1);
    for (const Insn& insn : fn_.code) {
      if (TouchesLocal(insn.op) && local_of_offset_[insn.a - offsets_.lo] < 0) {
        local_of_offset_[insn.a - offsets_.lo] = static_cast<int>(offset_of_local_.size());
        offset_of_local_.push_back(insn.a);
      }
    }
    escaped_.assign(offset_of_local_.size(), 0);
    for (const Insn& insn : fn_.code) {
      if (insn.op == Op::kAddrLocal && !escaped_[LocalOf(insn.a)]) {
        escaped_[LocalOf(insn.a)] = 1;
        escaped_locals_.push_back(LocalOf(insn.a));
      }
    }
    home_of_.assign(offset_of_local_.size(), -1);
  }

  // Dense index of a frame offset some local instruction names, else -1 (a
  // scratch slot of this pass).
  int LocalOf(int offset) const {
    int rel = offset - offsets_.lo;
    return rel >= 0 && rel < offsets_.span ? local_of_offset_[rel] : -1;
  }

  struct SlotState {
    int vn;
    int scratch;
    bool home;  // the slot is the program local the value was stored to
  };

  struct StateSnapshot {
    std::vector<ForwardTable::Entry> local_forward;
    std::vector<ForwardTable::Entry> mem_forward;
    std::vector<int> local_gen;
    int mem_gen = 0;
    int block_epoch = 0;
    std::vector<SlotState> slots;  // every VN holding a slot at snapshot time
  };

  void TakeSnapshot(int target) {
    StateSnapshot snap;
    snap.local_forward = local_forward_.entries();
    snap.mem_forward = mem_forward_.entries();
    snap.local_gen = local_gen_;
    snap.mem_gen = mem_gen_;
    snap.block_epoch = block_epoch_;
    snap.slots.reserve(slotted_.size());
    for (int id : slotted_) {
      snap.slots.push_back(SlotState{id, vns_[id].scratch, IsHome(id)});
    }
    snapshot_of_[target] = static_cast<int>(snapshots_.size());
    snapshots_.push_back(std::move(snap));
  }

  // Restores a dominating jump's state. Scratch caches created after the snapshot
  // were filled on paths that do not reach the target; revert them.
  bool RestoreSnapshot(int leader) {
    if (snapshot_of_[leader] < 0) {
      return false;
    }
    StateSnapshot& snap = snapshots_[snapshot_of_[leader]];
    local_forward_.Assign(snap.local_forward);
    mem_forward_.Assign(snap.mem_forward);
    local_gen_ = std::move(snap.local_gen);
    mem_gen_ = snap.mem_gen;
    block_epoch_ = snap.block_epoch;
    ClearSlots();
    for (const SlotState& slot : snap.slots) {
      SetScratch(slot.vn, slot.scratch);
      if (slot.home) {
        home_of_[LocalOf(slot.scratch)] = slot.vn;
      }
    }
    snap = StateSnapshot();  // each leader restores once
    return true;
  }

  // ---- scratch slots ----

  // Every scratch change goes through here so slotted_ lists exactly the VNs
  // holding a slot.
  void SetScratch(int id, int scratch) {
    VN& vn = vns_[id];
    if (scratch >= 0 && vn.slot_pos < 0) {
      vn.slot_pos = static_cast<int>(slotted_.size());
      slotted_.push_back(id);
    } else if (scratch < 0 && vn.slot_pos >= 0) {
      int moved = slotted_.back();
      slotted_[vn.slot_pos] = moved;
      vns_[moved].slot_pos = vn.slot_pos;
      slotted_.pop_back();
      vn.slot_pos = -1;
    }
    vn.scratch = scratch;
  }

  // A homed VN's slot is the program local it was stored to; home_of_ maps that
  // local back to it (so every home is also in slotted_).
  bool IsHome(int id) const {
    int local = LocalOf(vns_[id].scratch);
    return local >= 0 && home_of_[local] == id;
  }

  void ClearSlots() {
    for (int id : slotted_) {
      if (IsHome(id)) {
        home_of_[LocalOf(vns_[id].scratch)] = -1;
      }
      vns_[id].scratch = -1;
      vns_[id].slot_pos = -1;
    }
    slotted_.clear();
  }

  // ---- value numbering ----

  int InternVN(VN vn) {
    // block_epoch_ makes every value number block-local: scratch caches and use
    // counts never span basic blocks (a cached value does not dominate other
    // blocks, and cross-block "reuse" would double-count uses and trigger
    // pessimizing caching).
    vn.epoch = block_epoch_;
    if ((vns_.size() + 1) * 2 > intern_.size()) {
      GrowIntern();
    }
    const size_t mask = intern_.size() - 1;
    for (size_t i = IdentityHash(vn) & mask;; i = (i + 1) & mask) {
      int id = intern_[i];
      if (id < 0) {
        Derive(vn);
        id = static_cast<int>(vns_.size());
        vns_.push_back(std::move(vn));
        intern_[i] = id;
        return id;
      }
      if (SameIdentity(vns_[id], vn)) {
        return id;
      }
    }
  }

  void GrowIntern() {
    intern_.assign(std::max<size_t>(64, intern_.size() * 2), -1);
    const size_t mask = intern_.size() - 1;
    for (size_t id = 0; id < vns_.size(); ++id) {
      size_t i = IdentityHash(vns_[id]) & mask;
      while (intern_[i] >= 0) {
        i = (i + 1) & mask;
      }
      intern_[i] = static_cast<int>(id);
    }
  }

  // Fills in a new VN's cost, flags and read set from its operands.
  void Derive(VN& vn) const {
    switch (vn.k) {
      case VN::K::kOpaque:
        vn.has_opaque = true;
        break;
      case VN::K::kLoadLocal: {
        int local = LocalOf(vn.a);
        vn.local_deps.push_back(local);
        vn.reads_memory_state = escaped_[local] != 0;
        break;
      }
      case VN::K::kUnary:
        Inherit(vn, vns_[vn.x]);
        vn.cost = AddCost(1, vns_[vn.x].cost);
        break;
      case VN::K::kBinary:
        Inherit(vn, vns_[vn.x]);
        Inherit(vn, vns_[vn.y]);
        vn.cost = AddCost(1, AddCost(vns_[vn.x].cost, vns_[vn.y].cost));
        break;
      case VN::K::kLoadMem:
        Inherit(vn, vns_[vn.x]);
        vn.mem_dep = true;
        vn.reads_memory_state = true;
        vn.cost = AddCost(2, vns_[vn.x].cost);
        break;
      default:
        break;
    }
  }

  // Adds an operand's flags and read set to a new VN.
  static void Inherit(VN& vn, const VN& operand) {
    vn.mem_dep |= operand.mem_dep;
    vn.has_opaque |= operand.has_opaque;
    vn.reads_memory_state |= operand.reads_memory_state;
    std::vector<int> deps;
    std::set_union(vn.local_deps.begin(), vn.local_deps.end(), operand.local_deps.begin(),
                   operand.local_deps.end(), std::back_inserter(deps));
    vn.local_deps = std::move(deps);
  }

  int ConstVN(uint32_t value) {
    VN vn;
    vn.k = VN::K::kConst;
    vn.a = static_cast<int32_t>(value);
    return InternVN(std::move(vn));
  }

  // Opaque values are keyed by their creation site so both passes agree.
  int OpaqueVN(int site, int position) {
    VN vn;
    vn.k = VN::K::kOpaque;
    vn.a = site;
    vn.b = position;
    return InternVN(std::move(vn));
  }

  void CountUse(int id) {
    if (counting_) {
      ++vns_[id].uses;
    }
  }

  int UnaryVN(Op op, int x) {
    if (vns_[x].k == VN::K::kConst) {
      return ConstVN(FoldUnary(op, static_cast<uint32_t>(vns_[x].a)));
    }
    if (op == Op::kSext8 && vns_[x].k == VN::K::kUnary && vns_[x].op == Op::kSext8) {
      return x;
    }
    CountUse(x);
    VN vn;
    vn.k = VN::K::kUnary;
    vn.op = op;
    vn.x = x;
    return InternVN(std::move(vn));
  }

  int BinaryVN(Op op, int x, int y) {
    const VN& vx = vns_[x];
    const VN& vy = vns_[y];
    if (vx.k == VN::K::kConst && vy.k == VN::K::kConst) {
      return ConstVN(FoldBinary(op, static_cast<uint32_t>(vx.a), static_cast<uint32_t>(vy.a)));
    }
    if (vy.k == VN::K::kConst) {
      uint32_t c = static_cast<uint32_t>(vy.a);
      if ((op == Op::kAdd || op == Op::kSub || op == Op::kOr || op == Op::kXor ||
           op == Op::kShl || op == Op::kShrS || op == Op::kShrU) &&
          c == 0) {
        return x;
      }
      if ((op == Op::kMul || op == Op::kDivS || op == Op::kDivU) && c == 1) {
        return x;
      }
      if (op == Op::kMul && c == 0) {
        return ConstVN(0);
      }
      if (op == Op::kAnd && c == 0) {
        return ConstVN(0);
      }
    }
    if (vx.k == VN::K::kConst) {
      uint32_t c = static_cast<uint32_t>(vx.a);
      if ((op == Op::kAdd || op == Op::kOr || op == Op::kXor) && c == 0) {
        return y;
      }
      if (op == Op::kMul && c == 1) {
        return y;
      }
      if ((op == Op::kMul || op == Op::kAnd) && c == 0) {
        return ConstVN(0);
      }
    }
    if (x == y && op == Op::kSub) {
      return ConstVN(0);
    }
    if (x == y && op == Op::kXor) {
      return ConstVN(0);
    }
    int nx = x;
    int ny = y;
    if (IsCommutative(op) && nx > ny) {
      std::swap(nx, ny);
    }
    CountUse(x);
    CountUse(y);
    VN vn;
    vn.k = VN::K::kBinary;
    vn.op = op;
    vn.x = nx;
    vn.y = ny;
    return InternVN(std::move(vn));
  }

  // ---- emission ----

  void EmitOut(Op op, int32_t a = 0, int32_t b = 0) {
    if (emitting_) {
      out_.push_back(Insn{op, a, b});
    }
  }

  int AllocScratch() {
    frame_size_ = RoundUp(frame_size_, kWordSize);
    int offset = frame_size_;
    frame_size_ += kWordSize;
    return offset;
  }

  // Cache only when it pays: recomputing u times costs u*c instructions; caching
  // costs c + 2 (store+reload) + (u-1) reloads. Cache iff (u-1)*(c-1) > 2.
  static bool PaysToCache(const VN& vn) {
    return static_cast<int64_t>(vn.uses - 1) * (vn.cost - 1) > 2;
  }

  // Emits code pushing the value of `id` onto the real stack. Only pass 2 calls
  // this. Caches multi-use values in scratch slots.
  void Materialize(int id) {
    const VN& vn = vns_[id];
    if (vn.scratch >= 0) {
      EmitOut(Op::kLoadLocal, vn.scratch, kWordSize);
      return;
    }
    switch (vn.k) {
      case VN::K::kOpaque:
        assert(false && "opaque values are always physical");
        return;
      case VN::K::kConst:
        EmitOut(Op::kConstInt, vn.a);
        break;
      case VN::K::kSym:
        EmitOut(Op::kConstSym, vn.a);
        break;
      case VN::K::kAddrLocal:
        EmitOut(Op::kAddrLocal, vn.a);
        break;
      case VN::K::kLoadLocal:
        EmitOut(Op::kLoadLocal, vn.a, vn.b);
        break;
      case VN::K::kUnary:
        Materialize(vn.x);
        EmitOut(vn.op);
        break;
      case VN::K::kBinary:
        Materialize(vn.x);
        Materialize(vn.y);
        EmitOut(vn.op);
        break;
      case VN::K::kLoadMem:
        Materialize(vn.x);
        EmitOut(Op::kLoadMem, vn.a, vn.b);
        break;
    }
    CacheIfReused(id);
  }

  // After the value of `id` was pushed: if it pays, keep a copy in a new scratch
  // slot (store + reload leaves the value on the stack).
  void CacheIfReused(int id) {
    if (emitting_ && vns_[id].scratch < 0 && PaysToCache(vns_[id])) {
      SetScratch(id, AllocScratch());
      EmitOut(Op::kStoreLocal, vns_[id].scratch, kWordSize);
      EmitOut(Op::kLoadLocal, vns_[id].scratch, kWordSize);
    }
  }

  // Makes every entry physical. In pass 1 this only flips flags (keeping both
  // passes' state machines identical); in pass 2 it emits the pushes.
  void MaterializeAll(std::vector<Entry>& stack) {
    for (Entry& entry : stack) {
      if (!entry.physical) {
        if (emitting_) {
          Materialize(entry.vn);
        }
        entry.physical = true;
      }
    }
  }

  // Before a state-changing op: lazy entries whose value depends on state the op
  // will clobber must be computed NOW into scratch slots (pass 2 only — no
  // physical flags change, so the passes stay in sync). `local` is the dense
  // index of the local the op overwrites, or -1.
  // `consumed_top` entries at the top of the stack are exempt: the current op
  // materializes and consumes them itself, so pre-computing them into scratch
  // slots would only add store/load traffic.
  void ForceStale(const std::vector<Entry>& stack, bool invalidate_mem, int local,
                  int consumed_top) {
    if (!emitting_) {
      return;
    }
    size_t limit = stack.size() >= static_cast<size_t>(consumed_top)
                       ? stack.size() - static_cast<size_t>(consumed_top)
                       : 0;
    for (size_t e = 0; e < limit; ++e) {
      const Entry& entry = stack[e];
      if (entry.physical || vns_[entry.vn].scratch >= 0) {
        continue;
      }
      bool stale = (invalidate_mem && vns_[entry.vn].reads_memory_state) ||
                   (local >= 0 && DependsOnLocal(entry.vn, local));
      if (!stale) {
        continue;
      }
      Materialize(entry.vn);
      if (vns_[entry.vn].scratch < 0) {
        SetScratch(entry.vn, AllocScratch());
        EmitOut(Op::kStoreLocal, vns_[entry.vn].scratch, kWordSize);
      } else {
        EmitOut(Op::kPop);  // Materialize cached it and left a copy on the stack
      }
    }
  }

  bool DependsOnLocal(int vn, int local) const {
    const std::vector<int>& deps = vns_[vn].local_deps;
    return std::binary_search(deps.begin(), deps.end(), local);
  }

  // Forward-map hygiene: an entry whose VN reads state that is about to change
  // must not be handed out afterwards — it would rematerialize with the NEW state.
  // (Stack entries are handled by ForceStale; these maps are the other channel.)
  // A VN whose value was just stored into program local `local` can be reloaded
  // from there — no separate scratch needed. The home is evicted when the slot is
  // overwritten (or may be, via escape).
  void HomeValueInSlot(int local, int value) {
    if (!emitting_ || vns_[value].scratch >= 0 || escaped_[local] || vns_[value].cost < 2) {
      return;  // trivial values are cheaper to rematerialize than to reload
    }
    EvictHome(local);
    SetScratch(value, offset_of_local_[local]);
    home_of_[local] = value;
  }

  void EvictHome(int local) {
    int value = home_of_[local];
    if (value >= 0) {
      if (vns_[value].scratch == offset_of_local_[local]) {
        SetScratch(value, -1);
      }
      home_of_[local] = -1;
    }
  }

  void ScrubForwardsForLocal(int local) {
    local_forward_.EraseIf([&](const ForwardTable::Entry& e) {
      return e.first == local || DependsOnLocal(e.vn, local);
    });
    mem_forward_.EraseIf([&](const ForwardTable::Entry& e) {
      return DependsOnLocal(e.vn, local) || DependsOnLocal(e.first, local);
    });
  }

  void ScrubForwardsForMemory() {
    local_forward_.EraseIf([&](const ForwardTable::Entry& e) {
      return escaped_[e.first] || vns_[e.vn].reads_memory_state;
    });
  }

  // Every escaped local may have been written through its address.
  void ClobberEscapedLocals() {
    for (int local : escaped_locals_) {
      ++local_gen_[local];
      EvictHome(local);
    }
  }

  void InvalidateMemory() {
    ++mem_gen_;
    mem_forward_.Clear();
    ScrubForwardsForMemory();
    ClobberEscapedLocals();
  }

  // Decomposes an address VN into (base VN, constant offset) for alias checks.
  std::pair<int, int32_t> BaseOffset(int vn) const {
    const VN& v = vns_[vn];
    if (v.k == VN::K::kBinary && v.op == Op::kAdd) {
      if (vns_[v.y].k == VN::K::kConst) {
        return {v.x, vns_[v.y].a};
      }
      if (vns_[v.x].k == VN::K::kConst) {
        return {v.y, vns_[v.x].a};
      }
    }
    if (v.k == VN::K::kBinary && v.op == Op::kSub && vns_[v.y].k == VN::K::kConst) {
      return {v.x, -vns_[v.y].a};
    }
    return {vn, 0};
  }

  // True when a store to (store_addr, store_size) may overwrite the bytes read by
  // (load_addr, load_size). Same-base accesses with disjoint constant ranges
  // provably do not alias; everything else conservatively may.
  bool MayAlias(int store_addr, int store_size, int load_addr, int load_size) const {
    auto [sb, so] = BaseOffset(store_addr);
    auto [lb, lo] = BaseOffset(load_addr);
    if (sb != lb) {
      return true;
    }
    return !(so + store_size <= lo || lo + load_size <= so);
  }

  // A store happened through `addr`: drop only the memory forwards it may clobber
  // (plus anything whose *value* depends on memory, via the generation bump the
  // caller performs).
  void InvalidateMemoryForStore(int addr, int size) {
    mem_forward_.EraseIf([&](const ForwardTable::Entry& e) {
      return MayAlias(addr, size, e.first, e.second) || vns_[e.vn].mem_dep;
    });
    ScrubForwardsForMemory();
  }

  // ---- the simulation ----

  void Simulate(bool emit) {
    emitting_ = emit;
    counting_ = !emit;
    out_.clear();
    index_map_.assign(fn_.code.size(), -1);
    mem_gen_ = 0;
    block_epoch_ = 0;
    next_epoch_ = 0;
    snapshots_.clear();
    snapshot_of_.assign(fn_.code.size(), -1);
    ClearSlots();
    local_gen_.assign(offset_of_local_.size(), 0);
    local_forward_.Clear();
    mem_forward_.Clear();
    frame_size_ = fn_.frame_size;

    std::vector<Entry> stack;
    bool block_live = true;

    for (size_t i = 0; i < fn_.code.size(); ++i) {
      int index = static_cast<int>(i);
      if (leader_[i]) {
        index_map_[i] = static_cast<int>(out_.size());
        bool inherit = inherits_[i] && block_live;
        stack.clear();
        int depth = depths_[i] < 0 ? 0 : depths_[i];
        for (int d = 0; d < depth; ++d) {
          stack.push_back(Entry{OpaqueVN(index, d), true});
        }
        if (!inherit) {
          if (!RestoreSnapshot(index)) {
            local_forward_.Clear();
            mem_forward_.Clear();
            mem_gen_ += 1;                 // fresh generation per block
            block_epoch_ = ++next_epoch_;  // fresh, never-reused VN space
          }
        }
        block_live = depths_[i] >= 0;
      }
      if (!block_live) {
        continue;
      }
      const Insn& insn = fn_.code[i];
      SimulateInsn(index, insn, stack);
      if (insn.op == Op::kRet || insn.op == Op::kJmp) {
        block_live = false;
      } else if (i + 1 < fn_.code.size() && leader_[i + 1]) {
        // Falling through into the next block: everything still lazy must be
        // physically on the stack at the boundary.
        MaterializeAll(stack);
      }
    }
  }

  int Pop(std::vector<Entry>& stack) {
    assert(!stack.empty());
    int vn = stack.back().vn;
    stack.pop_back();
    CountUse(vn);
    return vn;
  }

  // Materializes the top entry (it is about to be consumed by an emitted op).
  void MaterializeTop(std::vector<Entry>& stack) {
    Entry& top = stack.back();
    if (!top.physical) {
      if (emitting_) {
        Materialize(top.vn);
      }
      top.physical = true;
    }
  }

  void SimulateInsn(int site, const Insn& insn, std::vector<Entry>& stack) {
    switch (insn.op) {
      case Op::kNop:
        return;
      case Op::kConstInt:
        stack.push_back(Entry{ConstVN(static_cast<uint32_t>(insn.a)), false});
        return;
      case Op::kConstSym: {
        VN vn;
        vn.k = VN::K::kSym;
        vn.a = insn.a;
        stack.push_back(Entry{InternVN(std::move(vn)), false});
        return;
      }
      case Op::kAddrLocal: {
        VN vn;
        vn.k = VN::K::kAddrLocal;
        vn.a = insn.a;
        stack.push_back(Entry{InternVN(std::move(vn)), false});
        return;
      }
      case Op::kLoadLocal: {
        const int local = LocalOf(insn.a);
        int fwd = local_forward_.Find(local, insn.b);
        if (fwd >= 0) {
          stack.push_back(Entry{fwd, false});
          return;
        }
        VN vn;
        vn.k = VN::K::kLoadLocal;
        vn.a = insn.a;
        vn.b = insn.b;
        vn.gen = local_gen_[local];
        int id = InternVN(std::move(vn));
        local_forward_.Set(local, insn.b, id);  // subsequent loads reuse this VN
        stack.push_back(Entry{id, false});
        return;
      }
      case Op::kStoreLocal: {
        const int local = LocalOf(insn.a);
        ForceStale(stack, /*invalidate_mem=*/false, local, /*consumed_top=*/1);
        MaterializeTop(stack);
        int value = Pop(stack);
        ++local_gen_[local];
        EmitOut(Op::kStoreLocal, insn.a, insn.b);
        ScrubForwardsForLocal(local);
        EvictHome(local);
        if (insn.b == kWordSize && !vns_[value].has_opaque && !DependsOnLocal(value, local)) {
          local_forward_.Set(local, insn.b, value);
          HomeValueInSlot(local, value);
        }
        if (escaped_[local]) {
          ++mem_gen_;
          mem_forward_.Clear();
          ScrubForwardsForMemory();
        }
        return;
      }
      case Op::kLoadMem: {
        Entry addr_entry = stack.back();
        int fwd = mem_forward_.Find(addr_entry.vn, insn.b);
        if (fwd >= 0) {
          if (addr_entry.physical) {
            EmitOut(Op::kPop);  // drop the already-pushed address
          }
          stack.pop_back();
          CountUse(addr_entry.vn);
          stack.push_back(Entry{fwd, false});
          return;
        }
        bool addr_physical = addr_entry.physical;
        int addr = Pop(stack);
        VN vn;
        vn.k = VN::K::kLoadMem;
        vn.a = insn.a;
        vn.b = insn.b;
        vn.x = addr;
        vn.gen = mem_gen_;
        int id = InternVN(std::move(vn));
        mem_forward_.Set(addr, insn.b, id);
        if (addr_physical) {
          // The address is already on the real stack: load eagerly and (if the
          // value is reused) cache it.
          EmitOut(Op::kLoadMem, insn.a, insn.b);
          CacheIfReused(id);
          stack.push_back(Entry{id, true});
        } else {
          stack.push_back(Entry{id, false});
        }
        return;
      }
      case Op::kStoreMem: {
        ForceStale(stack, /*invalidate_mem=*/true, -1, /*consumed_top=*/2);
        MaterializeAll(stack);
        int value = Pop(stack);
        int addr = Pop(stack);
        EmitOut(Op::kStoreMem, insn.a, insn.b);
        ++mem_gen_;
        InvalidateMemoryForStore(addr, insn.b);
        ClobberEscapedLocals();
        if (insn.b == kWordSize && !vns_[value].has_opaque) {
          mem_forward_.Set(addr, insn.b, value);  // store-to-load forwarding
        }
        return;
      }
      case Op::kDup: {
        Entry top = stack.back();
        if (top.physical) {
          EmitOut(Op::kDup);
        }
        CountUse(top.vn);
        stack.push_back(top);
        return;
      }
      case Op::kPop: {
        Entry top = stack.back();
        stack.pop_back();
        if (top.physical) {
          EmitOut(Op::kPop);
        }
        return;
      }
      case Op::kSwap: {
        assert(stack.size() >= 2);
        if (stack[stack.size() - 1].physical || stack[stack.size() - 2].physical) {
          MaterializeAll(stack);
          EmitOut(Op::kSwap);
        }
        std::swap(stack[stack.size() - 1], stack[stack.size() - 2]);
        return;
      }
      case Op::kJmp:
        MaterializeAll(stack);
        if (snapshot_target_[site] >= 0) {
          TakeSnapshot(snapshot_target_[site]);
        }
        EmitOut(Op::kJmp, insn.a);
        return;
      case Op::kJz:
      case Op::kJnz: {
        Entry cond = stack.back();
        stack.pop_back();
        MaterializeAll(stack);  // survivors cross the block boundary
        if (snapshot_target_[site] >= 0) {
          TakeSnapshot(snapshot_target_[site]);
        }
        if (!cond.physical && vns_[cond.vn].k == VN::K::kConst) {
          bool taken = (vns_[cond.vn].a != 0) == (insn.op == Op::kJnz);
          if (taken) {
            EmitOut(Op::kJmp, insn.a);
          }
          return;
        }
        if (!cond.physical && emitting_) {
          Materialize(cond.vn);
        }
        CountUse(cond.vn);
        EmitOut(insn.op, insn.a);
        return;
      }
      case Op::kCall:
      case Op::kCallIndirect:
      case Op::kCallBound: {
        int operands = CallArgc(insn.b) + (insn.op == Op::kCallIndirect ? 1 : 0);
        ForceStale(stack, /*invalidate_mem=*/true, -1, /*consumed_top=*/operands);
        MaterializeAll(stack);
        for (int k = 0; k < operands; ++k) {
          Pop(stack);
        }
        EmitOut(insn.op, insn.a, insn.b);
        InvalidateMemory();
        if (CallReturns(insn.b)) {
          stack.push_back(Entry{OpaqueVN(site, -1), true});
        }
        return;
      }
      case Op::kRet: {
        if (insn.a != 0) {
          MaterializeTop(stack);
          Pop(stack);
        }
        EmitOut(Op::kRet, insn.a);
        stack.clear();
        return;
      }
      default:
        break;
    }
    if (IsUnaryAlu(insn.op)) {
      Entry top = stack.back();
      stack.pop_back();
      CountUse(top.vn);
      int result = UnaryVN(insn.op, top.vn);
      if (top.physical) {
        EmitOut(insn.op);
        stack.push_back(Entry{result, true});
      } else {
        stack.push_back(Entry{result, false});
      }
      return;
    }
    if (IsBinaryAlu(insn.op)) {
      bool any_physical =
          stack[stack.size() - 1].physical || stack[stack.size() - 2].physical;
      if (any_physical) {
        MaterializeAll(stack);
        int y = Pop(stack);
        int x = Pop(stack);
        EmitOut(insn.op);
        stack.push_back(Entry{BinaryVN(insn.op, x, y), true});
        return;
      }
      int y = Pop(stack);
      int x = Pop(stack);
      stack.push_back(Entry{BinaryVN(insn.op, x, y), false});
      return;
    }
    assert(false && "unhandled opcode in LVN");
  }

  BytecodeFunction& fn_;
  std::vector<int> depths_;
  std::vector<char> leader_;          // per instruction: starts a block
  std::vector<char> inherits_;        // per leader: inherits the fallthrough state
  std::vector<int> snapshot_target_;  // per jump: leader it snapshots for, or -1
  std::vector<int> snapshot_of_;      // per leader: index into snapshots_, or -1
  std::vector<StateSnapshot> snapshots_;

  OffsetSpan offsets_;
  std::vector<int> local_of_offset_;  // offset - offsets_.lo -> dense local index
  std::vector<int> offset_of_local_;  // dense local index -> frame offset
  std::vector<char> escaped_;         // per local: its address is taken
  std::vector<int> escaped_locals_;

  std::vector<VN> vns_;
  std::vector<int> intern_;  // open-addressing table of VN ids, keyed by identity
  std::vector<int> slotted_;  // VNs with scratch >= 0
  int block_epoch_ = 0;
  int next_epoch_ = 0;
  std::vector<Insn> out_;
  std::vector<int> index_map_;  // leader index -> its index in out_
  bool emitting_ = false;
  bool counting_ = false;
  int frame_size_ = 0;
  int mem_gen_ = 0;
  std::vector<int> local_gen_;    // per local
  std::vector<int> home_of_;      // per local: VN homed there, or -1
  ForwardTable local_forward_;    // (local, size) -> VN
  ForwardTable mem_forward_;      // (addr VN, size) -> VN
};

// ---- cleanup passes ---------------------------------------------------------------

// Replaces stores to frame slots that are never read (no kLoadLocal/kAddrLocal of
// that offset anywhere in the function) with kPop: store-to-load forwarding in the
// LVN pass routinely makes the original slot dead, especially at inline seams.
void DeadStoreElim(BytecodeFunction& function) {
  const OffsetSpan offsets = LocalOffsets(function);
  std::vector<char> read(static_cast<size_t>(offsets.span), 0);
  for (const Insn& insn : function.code) {
    if (insn.op == Op::kLoadLocal || insn.op == Op::kAddrLocal) {
      read[insn.a - offsets.lo] = 1;
    }
  }
  for (Insn& insn : function.code) {
    if (insn.op == Op::kStoreLocal && !read[insn.a - offsets.lo]) {
      insn = Insn{Op::kPop, 0, 0};
    }
  }
}

// Cancels pure value producers against an immediately following kPop:
//   push-like + pop        -> (nothing)
//   unary + pop            -> pop        (the operand is dead too; next round)
//   binary + pop           -> pop, pop
//   loadmem + pop          -> pop        (drops a potentially-trapping load of an
//                                         unused value; MiniC has no volatile)
//   dup + pop              -> (nothing)
// Runs to a fixpoint together with nop compaction.
bool PopCancellation(BytecodeFunction& function) {
  const std::vector<char> leaders = LeaderBitmap(function);
  bool changed = false;
  for (size_t i = 0; i + 1 < function.code.size(); ++i) {
    if (function.code[i + 1].op != Op::kPop || leaders[i + 1]) {
      continue;
    }
    Op op = function.code[i].op;
    if (op == Op::kConstInt || op == Op::kConstSym || op == Op::kAddrLocal ||
        op == Op::kLoadLocal || op == Op::kDup) {
      function.code[i] = Insn{Op::kNop, 0, 0};
      function.code[i + 1] = Insn{Op::kNop, 0, 0};
      changed = true;
    } else if (IsUnaryAlu(op)) {
      function.code[i] = Insn{Op::kNop, 0, 0};
      changed = true;
    } else if (op == Op::kLoadMem) {
      function.code[i] = Insn{Op::kNop, 0, 0};
      changed = true;
    } else if (IsBinaryAlu(op)) {
      function.code[i] = Insn{Op::kPop, 0, 0};
      changed = true;
    }
  }
  if (changed) {
    CompactNops(function);
  }
  return changed;
}

// Removes `kStoreLocal t; kLoadLocal t` pairs where t is touched nowhere else.
void StoreLoadPeephole(BytecodeFunction& function) {
  bool changed = true;
  while (changed) {
    changed = false;
    const OffsetSpan offsets = LocalOffsets(function);
    std::vector<int> touches(static_cast<size_t>(offsets.span), 0);
    for (const Insn& insn : function.code) {
      if (TouchesLocal(insn.op)) {
        ++touches[insn.a - offsets.lo];
      }
    }
    const std::vector<char> leaders = LeaderBitmap(function);
    for (size_t i = 0; i + 1 < function.code.size(); ++i) {
      const Insn& store = function.code[i];
      const Insn& load = function.code[i + 1];
      if (store.op == Op::kStoreLocal && load.op == Op::kLoadLocal && store.a == load.a &&
          store.b == load.b && store.b == kWordSize && touches[store.a - offsets.lo] == 2 &&
          !leaders[i + 1]) {
        function.code[i].op = Op::kNop;
        function.code[i + 1].op = Op::kNop;
        changed = true;
      }
    }
    if (changed) {
      CompactNops(function);
    }
  }
}

void ThreadJumps(BytecodeFunction& function) {
  for (Insn& insn : function.code) {
    if (!IsJump(insn.op)) {
      continue;
    }
    int target = insn.a;
    int hops = 0;
    while (hops < 8 && static_cast<size_t>(target) < function.code.size() &&
           function.code[target].op == Op::kJmp && function.code[target].a != target) {
      target = function.code[target].a;
      ++hops;
    }
    insn.a = target;
  }
  for (size_t i = 0; i < function.code.size(); ++i) {
    if (function.code[i].op == Op::kJmp && function.code[i].a == static_cast<int>(i) + 1) {
      function.code[i].op = Op::kNop;
    }
  }
}

void RemoveUnreachable(BytecodeFunction& function) {
  std::vector<int> depth = ComputeDepths(function);
  for (size_t i = 0; i < function.code.size(); ++i) {
    if (depth[i] == -1) {
      function.code[i] = Insn{Op::kNop, 0, 0};
    }
  }
}

}  // namespace

void SimplifyControlFlow(BytecodeFunction& function) {
  RemoveUnreachable(function);
  CompactNops(function);
}

void LocalValueNumber(BytecodeFunction& function) { LvnPass(function).Run(); }

void ThreadJumpChains(BytecodeFunction& function) {
  ThreadJumps(function);
  RemoveUnreachable(function);
  CompactNops(function);
}

void PeepholeOptimize(BytecodeFunction& function) {
  StoreLoadPeephole(function);
  // Dead stores and the values feeding them cancel iteratively.
  for (int round = 0; round < 8; ++round) {
    DeadStoreElim(function);
    if (!PopCancellation(function)) {
      break;
    }
    StoreLoadPeephole(function);
  }
}

void OptimizeFunction(BytecodeFunction& function) {
  SimplifyControlFlow(function);
  LocalValueNumber(function);
  ThreadJumpChains(function);
  PeepholeOptimize(function);
}

namespace {

// kCall references per function index across the whole object (data relocations
// count as extra references so address-taken functions are never "single-call").
std::vector<int> CountCallSites(const ObjectFile& object) {
  std::vector<int> counts(object.functions.size(), 0);
  auto count_symbol = [&](int symbol_index, int weight) {
    const ObjSymbol& symbol = object.symbols[symbol_index];
    if (symbol.section == ObjSymbol::Section::kText && symbol.index >= 0 &&
        symbol.index < static_cast<int>(counts.size())) {
      counts[symbol.index] += weight;
    }
  };
  for (const BytecodeFunction& function : object.functions) {
    for (const Insn& insn : function.code) {
      if (insn.op == Op::kCall) {
        count_symbol(insn.a, 1);
      } else if (insn.op == Op::kConstSym) {
        count_symbol(insn.a, 2);  // address taken: disqualify single-call inlining
      }
    }
  }
  for (const DataReloc& reloc : object.data_relocs) {
    count_symbol(reloc.symbol, 2);
  }
  return counts;
}

}  // namespace

bool CanSpliceCall(const Insn& call, const BytecodeFunction& callee) {
  return callee.returns_value == CallReturns(call.b) && callee.param_count == CallArgc(call.b) &&
         !ReachesBareReturn(callee);
}

void SpliceCallee(BytecodeFunction& caller, size_t p, const BytecodeFunction& callee) {
  int base = RoundUp(caller.frame_size, kWordSize);
  caller.frame_size = base + callee.frame_size;
  std::vector<Insn> splice;
  for (int i = callee.param_count - 1; i >= 0; --i) {
    splice.push_back(Insn{Op::kStoreLocal, base + i * kWordSize, kWordSize});
  }
  int body_start = static_cast<int>(splice.size());
  int end_index = body_start + static_cast<int>(callee.code.size());
  for (const Insn& insn : callee.code) {
    Insn copy = insn;
    switch (copy.op) {
      case Op::kLoadLocal:
      case Op::kStoreLocal:
      case Op::kAddrLocal:
        copy.a += base;
        break;
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
        copy.a += body_start;
        break;
      case Op::kRet:
        copy.op = Op::kJmp;
        copy.a = end_index;
        break;
      default:
        break;
    }
    splice.push_back(copy);
  }

  int grow = static_cast<int>(splice.size()) - 1;
  std::vector<Insn> out;
  out.reserve(caller.code.size() + splice.size());
  for (size_t i = 0; i < p; ++i) {
    Insn insn = caller.code[i];
    if (IsJump(insn.op) && insn.a > static_cast<int>(p)) {
      insn.a += grow;
    }
    out.push_back(insn);
  }
  for (Insn insn : splice) {
    if (IsJump(insn.op)) {
      insn.a += static_cast<int>(p);
    }
    out.push_back(insn);
  }
  for (size_t i = p + 1; i < caller.code.size(); ++i) {
    Insn insn = caller.code[i];
    if (IsJump(insn.op) && insn.a > static_cast<int>(p)) {
      insn.a += grow;
    }
    out.push_back(insn);
  }
  caller.code = std::move(out);
}

int InlineCalls(ObjectFile& object, int function_index, const CodegenOptions& options) {
  int inlined = 0;
  bool progress = true;
  while (progress &&
         static_cast<int>(object.functions[function_index].code.size()) <
             options.caller_growth) {
    progress = false;
    std::vector<int> call_sites = CountCallSites(object);
    BytecodeFunction& caller = object.functions[function_index];
    for (size_t p = 0; p < caller.code.size(); ++p) {
      const Insn call = caller.code[p];
      if (call.op != Op::kCall) {
        continue;
      }
      const ObjSymbol& symbol = object.symbols[call.a];
      if (symbol.section != ObjSymbol::Section::kText || symbol.index < 0 ||
          symbol.index >= function_index) {
        continue;  // undefined here, or defined later in the TU — not inlinable
      }
      const BytecodeFunction& callee = object.functions[symbol.index];
      if (callee.variadic) {
        continue;
      }
      bool small = options.inline_limit > 0 &&
                   static_cast<int>(callee.code.size()) <= options.inline_limit;
      bool single = options.inline_single_call && !symbol.global &&
                    call_sites[symbol.index] == 1 &&
                    static_cast<int>(callee.code.size()) <= options.single_call_limit;
      if (!small && !single) {
        continue;
      }
      if (!CanSpliceCall(call, callee)) {
        continue;
      }
      SpliceCallee(caller, p, callee);
      ++inlined;
      progress = true;
      break;  // indices changed; rescan
    }
  }
  return inlined;
}

void RemoveDeadLocalFunctions(ObjectFile& object) {
  std::set<int> live_functions;
  std::vector<int> work;
  auto add_symbol = [&](int symbol_index) {
    const ObjSymbol& symbol = object.symbols[symbol_index];
    if (symbol.section == ObjSymbol::Section::kText && symbol.index >= 0 &&
        live_functions.insert(symbol.index).second) {
      work.push_back(symbol.index);
    }
  };
  for (size_t s = 0; s < object.symbols.size(); ++s) {
    if (object.symbols[s].section == ObjSymbol::Section::kText && object.symbols[s].global) {
      add_symbol(static_cast<int>(s));
    }
  }
  for (const DataReloc& reloc : object.data_relocs) {
    add_symbol(reloc.symbol);
  }
  while (!work.empty()) {
    int f = work.back();
    work.pop_back();
    for (const Insn& insn : object.functions[f].code) {
      if (insn.op == Op::kCall || insn.op == Op::kConstSym) {
        add_symbol(insn.a);
      }
    }
  }
  if (live_functions.size() == object.functions.size()) {
    return;
  }
  std::vector<int> remap(object.functions.size(), -1);
  std::vector<BytecodeFunction> kept;
  for (size_t f = 0; f < object.functions.size(); ++f) {
    if (live_functions.count(static_cast<int>(f)) > 0) {
      remap[f] = static_cast<int>(kept.size());
      kept.push_back(std::move(object.functions[f]));
    }
  }
  object.functions = std::move(kept);
  for (ObjSymbol& symbol : object.symbols) {
    if (symbol.section == ObjSymbol::Section::kText) {
      if (symbol.index >= 0 && remap[symbol.index] >= 0) {
        symbol.index = remap[symbol.index];
      } else {
        symbol.section = ObjSymbol::Section::kUndefined;
        symbol.index = 0;
        symbol.global = false;
      }
    }
  }
}

void OptimizeObject(ObjectFile& object, const CodegenOptions& options) {
  PassManager manager = MakeObjectPassManager();
  manager.RunOnObject(object, options, options.pass_stats);
}

}  // namespace knit
