#include "src/vm/optimize.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/vm/codegen.h"
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

// ---- flow analysis ---------------------------------------------------------------

// What the transforms know about a function's control flow. SimplifyControlFlow
// computes it, nop compaction carries it along, and the next transform reads it
// instead of recomputing it: LVN the depths, the peephole the leaders. Jump
// threading walks the function again only when a jump now lands elsewhere or
// LVN folded a branch; otherwise every instruction is still reachable.
struct Flow {
  std::vector<int> depth;       // stack depth on entry; -1 when unreachable
  std::vector<char> leader;     // starts a basic block: the entry, every jump
                                // target, and every insn after a jump or kRet
  std::vector<int> jumps_in;    // jumps targeting the insn
  std::vector<int> first_jump;  // lowest-index jump targeting the insn, or -1
};

void ScanLeaders(const BytecodeFunction& function, Flow& flow) {
  const int size = static_cast<int>(function.code.size());
  flow.leader.assign(function.code.size(), 0);
  flow.jumps_in.assign(function.code.size(), 0);
  flow.first_jump.assign(function.code.size(), -1);
  if (size > 0) {
    flow.leader[0] = 1;
  }
  for (int i = 0; i < size; ++i) {
    const Insn& insn = function.code[i];
    if (IsJump(insn.op) && insn.a >= 0 && insn.a < size) {
      flow.leader[insn.a] = 1;
      if (flow.jumps_in[insn.a]++ == 0) {
        flow.first_jump[insn.a] = i;
      }
    }
    if ((IsJump(insn.op) || insn.op == Op::kRet) && i + 1 < size) {
      flow.leader[i + 1] = 1;
    }
  }
}

bool TouchesLocal(Op op) {
  return op == Op::kLoadLocal || op == Op::kStoreLocal || op == Op::kAddrLocal;
}

// Dense indices for the frame offsets a function's kLoadLocal/kStoreLocal/
// kAddrLocal instructions name, numbered in order of first appearance. The
// offsets can lie far apart (a large local array, scratch slots past the
// frame), so they are hashed into a table sized by the function's length, not
// by the frame's span.
class LocalSlots {
 public:
  void Build(const BytecodeFunction& function) {
    const std::vector<Insn>& code = function.code;
    offsets_.clear();
    slot_at_.assign(code.size(), -1);
    // At most one offset per instruction, so the table is at most half full.
    shift_ = 28;
    while ((size_t{1} << (32 - shift_)) < 2 * code.size() + 2) {
      --shift_;
    }
    table_.assign(size_t{1} << (32 - shift_), -1);
    for (size_t i = 0; i < code.size(); ++i) {
      if (TouchesLocal(code[i].op)) {
        slot_at_[i] = Slot(code[i].a);
      }
    }
  }

  // The index instruction `i` names, or -1 when it names no local.
  int At(size_t i) const { return slot_at_[i]; }
  int Offset(int slot) const { return offsets_[slot]; }
  int size() const { return static_cast<int>(offsets_.size()); }

 private:
  int Slot(int offset) {
    for (size_t b = (static_cast<uint32_t>(offset) * 0x9e3779b1u) >> shift_;;
         b = (b + 1) & (table_.size() - 1)) {
      if (table_[b] < 0) {
        table_[b] = static_cast<int>(offsets_.size());
        offsets_.push_back(offset);
        return table_[b];
      }
      if (offsets_[table_[b]] == offset) {
        return table_[b];
      }
    }
  }

  std::vector<int> offsets_;  // slot -> frame offset
  std::vector<int> slot_at_;  // instruction -> slot, or -1
  std::vector<int> table_;    // open addressing over offsets_: bucket -> slot, or -1
  int shift_ = 28;
};

// Deletes every kNop in place, retargeting each jump to the first kept
// instruction at or after its old target. `depth`, when given, keeps the entry
// depth of every kept instruction (deleting unreachable code and stack-neutral
// nops changes no other depth). `new_index` is scratch.
void CompactNops(BytecodeFunction& function, std::vector<int>& new_index,
                 std::vector<int>* depth) {
  std::vector<Insn>& code = function.code;
  const int size = static_cast<int>(code.size());
  new_index.resize(code.size() + 1);
  int kept = 0;
  for (int i = 0; i < size; ++i) {
    new_index[i] = kept;
    if (code[i].op != Op::kNop) {
      ++kept;
    }
  }
  new_index[size] = kept;
  if (kept == size) {
    return;
  }
  int out = 0;
  for (int i = 0; i < size; ++i) {
    if (code[i].op == Op::kNop) {
      continue;
    }
    Insn insn = code[i];
    if (IsJump(insn.op) && insn.a >= 0 && insn.a <= size) {
      insn.a = new_index[insn.a];
    }
    code[out] = insn;
    if (depth != nullptr) {
      (*depth)[out] = (*depth)[i];
    }
    ++out;
  }
  code.resize(static_cast<size_t>(kept));
  if (depth != nullptr) {
    depth->resize(static_cast<size_t>(kept));
  }
}

// Points every jump at the end of the kJmp chain it lands on (at most 8 hops)
// and turns each kJmp to the next instruction into a kNop. True when a jump
// now lands somewhere else.
bool ThreadJumps(BytecodeFunction& function) {
  bool retargeted = false;
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
    retargeted |= insn.a != target;
    insn.a = target;
  }
  for (size_t i = 0; i < function.code.size(); ++i) {
    if (function.code[i].op == Op::kJmp && function.code[i].a == static_cast<int>(i) + 1) {
      function.code[i].op = Op::kNop;
    }
  }
  return retargeted;
}

// ---- local value numbering -------------------------------------------------------
//
// Two simulations run over the function: a counting pass (which VNs are consumed
// how often) and an emission pass. Both evolve the physical/lazy state of the
// symbolic stack identically and ask for the same VNs in the same order, so the
// emission pass replays the value numbers and forward-table lookups the counting
// pass recorded instead of recomputing them; only the code emission (and the
// scratch slots it fills) differs.
//
// Cost contract, per instruction:
//  * VNs are interned in a hash table, and a VN's cost, flags and read set (the
//    locals it transitively reads) are computed once, from its operands, when
//    it is created. A read set is a sorted range of one pool shared by every VN
//    of the run; a value whose read set equals an operand's shares its range.
//  * A forward table maps a key (a local, or an address VN, and an access
//    size) to a VN through a flat cell array. Setting an entry files it on the
//    list of every event that can kill it: a store to a local its key or value
//    reads, a memory write when it reads memory state, a block start, a memory
//    store. An event sweeps its own list from where its last sweep stopped, so
//    it visits the entries it kills (a memory store also revisits the entries
//    under its own base address that it does not alias).
//  * While a snapshot is pending, every change to the state a snapshot restores
//    (table cells, list cursors and appends, local generations, scratch slots,
//    homes) is recorded as (location, old, new) on a trail. A snapshot is a
//    trail position, and restoring it undoes the trail back to that position.
//    Snapshots nest in structured code; when a restore undoes past a later
//    snapshot that is still pending, that snapshot keeps the undone records as
//    a segment it replays at its own target.
//  * Storage belongs to the pass object and is reused by the next function.

// Recompute costs above this are all "expensive": the caching rule below gives
// the same answer for every cost >= 4, so saturating keeps the emitted code and
// makes costs immune to overflow on exponentially shared expressions.
constexpr int kMaxCost = 1 << 20;

int AddCost(int x, int y) { return std::min(kMaxCost, x + y); }

struct VN {
  enum class K : uint8_t {
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
  // Identity (with the block epoch it was created in): k, op, a, b, x, y, gen
  // and epoch.
  K k = K::kOpaque;
  Op op = Op::kNop;
  // Derived from the operands when the VN is created:
  bool mem_dep = false;        // transitively contains a memory load
  bool has_opaque = false;     // transitively contains an opaque value (cannot be
                               // rematerialized -> never forwarded into lazy entries)
  bool reads_memory_state = false;  // mem_dep, or reads an escaped local
  int32_t a = 0;
  int32_t b = 0;
  int x = -1;
  int y = -1;
  int gen = 0;
  int epoch = 0;
  int cost = 1;                // instructions to recompute it, saturated at kMaxCost
  int deps_begin = 0;          // read set: Lvn::dep_pool_[deps_begin, +deps_size),
  int deps_size = 0;           //   the sorted dense indices of the locals read
  int local = -1;              // kLoadLocal: the dense index of local `a`
  // Analysis state:
  int uses = 0;       // counted in pass 1
  int scratch = -1;   // frame slot caching the value (pass 2)
};

uint64_t IdentityHash(VN::K k, Op op, int32_t a, int32_t b, int x, int y, int gen, int epoch) {
  auto pair = [](int32_t hi, int32_t lo) {
    return static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32 | static_cast<uint32_t>(lo);
  };
  // Four independent multiplies, so the hash does not wait on a chain of them.
  const uint64_t h = pair(static_cast<int32_t>(k) << 8 | static_cast<int32_t>(op), a) *
                         0x9e3779b97f4a7c15ull ^
                     pair(b, x) * 0xc2b2ae3d27d4eb4full ^ pair(y, gen) * 0x165667b19e3779f9ull ^
                     pair(epoch, 0) * 0x27d4eb2f165667c5ull;
  return h ^ (h >> 29);
}

class Lvn {
 public:
  // Value-numbers `function`, whose `flow` is current. True when it folded a
  // branch on a constant.
  bool Run(BytecodeFunction& function, const Flow& flow) {
    fn_ = &function;
    flow_ = &flow;
    const size_t size = function.code.size();
    inherits_.assign(size, 0);
    snapshot_target_.assign(size, -1);
    ComputeInheritingLeaders();
    IndexLocals();
    vns_.clear();
    dep_pool_.clear();
    size_t buckets = 64;
    while (buckets < 2 * size + 2) {
      buckets *= 2;
    }
    intern_.assign(buckets, -1);
    Simulate(/*emit=*/false);
    Simulate(/*emit=*/true);
    for (Insn& insn : out_) {
      if (IsJump(insn.op)) {
        assert(index_map_[insn.a] >= 0);
        insn.a = index_map_[insn.a];
      }
    }
    function.code.assign(out_.begin(), out_.end());
    function.frame_size = RoundUp(frame_size_, kWordSize);
    return folded_;
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
    const std::vector<Insn>& code = fn_->code;
    const int size = static_cast<int>(code.size());
    for (int leader = 1; leader < size; ++leader) {
      if (!flow_->leader[leader]) {
        continue;
      }
      const Insn& prev = code[leader - 1];
      bool has_fallthrough = prev.op != Op::kJmp && prev.op != Op::kRet &&
                             flow_->depth[leader - 1] >= 0;
      const int jumps = flow_->jumps_in[leader];
      if (has_fallthrough && jumps == 0) {
        inherits_[leader] = 1;
      } else if (!has_fallthrough && jumps == 1 && flow_->first_jump[leader] < leader) {
        snapshot_target_[flow_->first_jump[leader]] = leader;
      }
    }
  }

  // Gives every frame offset a local instruction names a dense index; the
  // per-local state (generations, escapes, homes, read sets) is indexed by it.
  // Also lists the access sizes the forward tables key on.
  void IndexLocals() {
    slots_.Build(*fn_);
    const size_t locals = static_cast<size_t>(slots_.size());
    sizes_.clear();
    escaped_.assign(locals, 0);
    escaped_locals_.clear();
    for (size_t i = 0; i < fn_->code.size(); ++i) {
      const Insn& insn = fn_->code[i];
      if (insn.op == Op::kAddrLocal) {
        const int local = slots_.At(i);
        if (!escaped_[local]) {
          escaped_[local] = 1;
          escaped_locals_.push_back(local);
        }
      } else if ((insn.op == Op::kLoadLocal || insn.op == Op::kStoreLocal ||
                  insn.op == Op::kLoadMem || insn.op == Op::kStoreMem) &&
                 std::find(sizes_.begin(), sizes_.end(), insn.b) == sizes_.end()) {
        sizes_.push_back(insn.b);
      }
    }
    single_dep_.assign(locals, -1);
    if (lists_.size() < kFirstWatchList + locals) {
      lists_.resize(kFirstWatchList + locals);
    }
  }

  int SizeIndex(int size) const {
    return static_cast<int>(std::find(sizes_.begin(), sizes_.end(), size) - sizes_.begin());
  }

  // ---- the trail ----

  // A change to restorable state. kAppend pushed the handle (old_value,
  // new_value) onto list `index`; every other kind set an int from old_value
  // to new_value.
  enum class Kind : uint8_t { kLocalCell, kMemCell, kLocalGen, kScratch, kHome, kCursor, kAppend };
  struct Change {
    Kind kind;
    int index;
    int old_value;
    int new_value;
  };

  // An entry of a forward table, as filed on an event list: `cell` >= 0 is a
  // local-table cell, otherwise the mem-table cell -1 - cell. The entry is
  // still live while its cell holds `vn`.
  struct Handle {
    int cell;
    int vn;
  };
  struct HandleList {
    std::vector<Handle> items;
    int cursor = 0;  // items before it were swept
  };
  static constexpr int kLocalClearList = 0;  // every local-table entry
  static constexpr int kMemStoreList = 1;    // every mem-table entry
  static constexpr int kMemoryList = 2;      // local-table entries that read memory state
  static constexpr size_t kFirstWatchList = 3;  // + local: entries that read that local

  struct Snapshot {
    size_t fork;      // trail position of the state
    size_t seg_begin;  // then replay segments_[seg_begin, +seg_size)
    size_t seg_size;
    int mem_gen;
    int block_epoch;
  };

  bool Trailing() const { return !pending_.empty(); }

  int& Location(Kind kind, int index) {
    switch (kind) {
      case Kind::kLocalCell:
        return local_cell_[index];
      case Kind::kMemCell:
        return mem_cell_[index];
      case Kind::kLocalGen:
        return local_gen_[index];
      case Kind::kScratch:
        return vns_[index].scratch;
      case Kind::kHome:
        return home_of_[index];
      case Kind::kCursor:
      case Kind::kAppend:
        break;
    }
    return lists_[index].cursor;
  }

  void Write(Kind kind, int index, int value) {
    int& at = Location(kind, index);
    if (at != value) {
      if (Trailing()) {
        trail_.push_back(Change{kind, index, at, value});
      }
      at = value;
    }
  }

  void Append(int list, Handle handle) {
    lists_[list].items.push_back(handle);
    if (Trailing()) {
      trail_.push_back(Change{Kind::kAppend, list, handle.cell, handle.vn});
    }
  }

  void Undo(const Change& change) {
    if (change.kind == Kind::kAppend) {
      lists_[change.index].items.pop_back();
    } else {
      Location(change.kind, change.index) = change.old_value;
    }
  }

  void Redo(const Change& change) {
    if (change.kind == Kind::kAppend) {
      lists_[change.index].items.push_back(Handle{change.old_value, change.new_value});
    } else {
      Location(change.kind, change.index) = change.new_value;
    }
    if (Trailing()) {
      trail_.push_back(change);
    }
  }

  void TakeSnapshot(int target) {
    snapshot_of_[target] = static_cast<int>(snapshots_.size());
    pending_.push_back(static_cast<int>(snapshots_.size()));
    snapshots_.push_back(Snapshot{trail_.size(), 0, 0, mem_gen_, block_epoch_});
  }

  // Restores a dominating jump's state. Scratch caches created after the snapshot
  // were filled on paths that do not reach the target; the undo reverts them.
  bool RestoreSnapshot(int leader) {
    const int id = snapshot_of_[leader];
    if (id < 0) {
      return false;
    }
    const Snapshot snap = snapshots_[id];
    // Pending snapshots are in the order taken, so their forks never decrease.
    // Those forked after this one are re-forked here: the changes between the
    // two forks go ahead of their replay segments.
    for (auto it = pending_.rbegin(); it != pending_.rend() && snapshots_[*it].fork > snap.fork;
         ++it) {
      Snapshot& later = snapshots_[*it];
      const size_t begin = segments_.size();
      segments_.reserve(begin + (later.fork - snap.fork) + later.seg_size);
      segments_.insert(segments_.end(), trail_.begin() + static_cast<ptrdiff_t>(snap.fork),
                       trail_.begin() + static_cast<ptrdiff_t>(later.fork));
      for (size_t k = 0; k < later.seg_size; ++k) {
        segments_.push_back(segments_[later.seg_begin + k]);
      }
      later.fork = snap.fork;
      later.seg_begin = begin;
      later.seg_size = segments_.size() - begin;
    }
    for (size_t i = trail_.size(); i > snap.fork; --i) {
      Undo(trail_[i - 1]);
    }
    trail_.resize(snap.fork);
    pending_.erase(std::find(pending_.begin(), pending_.end(), id));
    for (size_t k = 0; k < snap.seg_size; ++k) {
      Redo(segments_[snap.seg_begin + k]);
    }
    if (!Trailing()) {
      trail_.clear();
    }
    mem_gen_ = snap.mem_gen;
    block_epoch_ = snap.block_epoch;
    return true;
  }

  // ---- forward tables ----

  // Pass 2 replays what pass 1's lookups found, and leaves the tables (and the
  // local generations) alone: they only decide value numbers.
  int LocalForward(int local, int size) {
    if (emitting_) {
      return replay_[replay_at_++];
    }
    const int vn = local_cell_[static_cast<size_t>(local) * sizes_.size() + SizeIndex(size)];
    replay_.push_back(vn);
    return vn;
  }

  int MemForward(int addr, int size) {
    if (emitting_) {
      return replay_[replay_at_++];
    }
    const size_t cell = static_cast<size_t>(addr) * sizes_.size() + SizeIndex(size);
    const int vn = cell < mem_cell_.size() ? mem_cell_[cell] : -1;
    replay_.push_back(vn);
    return vn;
  }

  int CellValue(int cell) const { return cell >= 0 ? local_cell_[cell] : mem_cell_[-1 - cell]; }

  void Erase(int cell) {
    if (cell >= 0) {
      Write(Kind::kLocalCell, cell, -1);
    } else {
      Write(Kind::kMemCell, -1 - cell, -1);
    }
  }

  void FileOnReads(int vn, int skip_local, Handle handle) {
    const VN& v = vns_[vn];
    for (int k = 0; k < v.deps_size; ++k) {
      const int local = dep_pool_[v.deps_begin + k];
      if (local != skip_local) {
        Append(static_cast<int>(kFirstWatchList) + local, handle);
      }
    }
  }

  void SetLocalForward(int local, int size, int vn) {
    if (emitting_) {
      return;
    }
    const int cell = local * static_cast<int>(sizes_.size()) + SizeIndex(size);
    if (local_cell_[cell] == vn) {
      return;
    }
    Write(Kind::kLocalCell, cell, vn);
    const Handle handle{cell, vn};
    Append(kLocalClearList, handle);
    Append(static_cast<int>(kFirstWatchList) + local, handle);
    FileOnReads(vn, local, handle);
    if (escaped_[local] || vns_[vn].reads_memory_state) {
      Append(kMemoryList, handle);
    }
  }

  void SetMemForward(int addr, int size, int vn) {
    if (emitting_) {
      return;
    }
    const size_t cell = static_cast<size_t>(addr) * sizes_.size() + SizeIndex(size);
    if (cell >= mem_cell_.size()) {
      mem_cell_.resize(std::max(cell + 1, 2 * mem_cell_.size()), -1);
    }
    if (mem_cell_[cell] == vn) {
      return;
    }
    Write(Kind::kMemCell, static_cast<int>(cell), vn);
    const Handle handle{-1 - static_cast<int>(cell), vn};
    Append(kMemStoreList, handle);
    FileOnReads(vn, -1, handle);
    FileOnReads(addr, -1, handle);
  }

  // Sweeps `list` from its cursor: erases every live entry `kill` selects and
  // files the others again.
  template <typename Kill>
  void Sweep(int list, Kill kill) {
    if (emitting_) {
      return;
    }
    survivors_.clear();
    const int end = static_cast<int>(lists_[list].items.size());
    for (int i = lists_[list].cursor; i < end; ++i) {
      const Handle handle = lists_[list].items[i];
      if (CellValue(handle.cell) != handle.vn) {
        continue;  // already erased or overwritten
      }
      if (kill(handle)) {
        Erase(handle.cell);
      } else {
        survivors_.push_back(handle);
      }
    }
    if (Trailing()) {
      Write(Kind::kCursor, list, end);
      for (const Handle& handle : survivors_) {
        Append(list, handle);
      }
    } else {
      lists_[list].items.assign(survivors_.begin(), survivors_.end());
      lists_[list].cursor = 0;
    }
  }

  void SweepAll(int list) {
    Sweep(list, [](const Handle&) { return true; });
  }

  // ---- scratch slots ----

  void SetScratch(int id, int scratch) { Write(Kind::kScratch, id, scratch); }

  // ---- value numbering ----

  // The VN with the given identity fields (see VN::K) in the current block
  // epoch, created if it is new. `local` is a kLoadLocal's dense local index.
  int InternVN(VN::K k, Op op, int32_t a, int32_t b, int x, int y, int gen, int local = -1) {
    if (emitting_) {
      const int id = replay_[replay_at_++];
      assert(vns_[id].k == k && vns_[id].op == op && vns_[id].a == a && vns_[id].x == x);
      return id;
    }
    // block_epoch_ makes every value number block-local: scratch caches and use
    // counts never span basic blocks (a cached value does not dominate other
    // blocks, and cross-block "reuse" would double-count uses and trigger
    // pessimizing caching).
    const int epoch = block_epoch_;
    if ((vns_.size() + 1) * 2 > intern_.size()) {
      GrowIntern();
    }
    const size_t mask = intern_.size() - 1;
    for (size_t i = IdentityHash(k, op, a, b, x, y, gen, epoch) & mask;; i = (i + 1) & mask) {
      int id = intern_[i];
      if (id < 0) {
        id = static_cast<int>(vns_.size());
        VN& vn = vns_.emplace_back();
        vn.k = k;
        vn.op = op;
        vn.a = a;
        vn.b = b;
        vn.x = x;
        vn.y = y;
        vn.gen = gen;
        vn.epoch = epoch;
        vn.local = local;
        Derive(vn);
        intern_[i] = id;
        replay_.push_back(id);
        return id;
      }
      const VN& v = vns_[id];
      if (v.k == k && v.op == op && v.a == a && v.b == b && v.x == x && v.y == y && v.gen == gen &&
          v.epoch == epoch) {
        replay_.push_back(id);
        return id;
      }
    }
  }

  void GrowIntern() {
    intern_.assign(std::max<size_t>(64, intern_.size() * 2), -1);
    const size_t mask = intern_.size() - 1;
    for (size_t id = 0; id < vns_.size(); ++id) {
      const VN& v = vns_[id];
      size_t i = IdentityHash(v.k, v.op, v.a, v.b, v.x, v.y, v.gen, v.epoch) & mask;
      while (intern_[i] >= 0) {
        i = (i + 1) & mask;
      }
      intern_[i] = static_cast<int>(id);
    }
  }

  // Fills in a new VN's cost, flags and read set from its operands.
  void Derive(VN& vn) {
    switch (vn.k) {
      case VN::K::kOpaque:
        vn.has_opaque = true;
        break;
      case VN::K::kLoadLocal: {
        const int local = vn.local;
        if (single_dep_[local] < 0) {
          single_dep_[local] = static_cast<int>(dep_pool_.size());
          dep_pool_.push_back(local);
        }
        vn.deps_begin = single_dep_[local];
        vn.deps_size = 1;
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

  // Adds an operand's flags and read set to a new VN. The union is written to
  // the pool only when it differs from both sets.
  void Inherit(VN& vn, const VN& operand) {
    vn.mem_dep |= operand.mem_dep;
    vn.has_opaque |= operand.has_opaque;
    vn.reads_memory_state |= operand.reads_memory_state;
    const int ps = vn.deps_size;
    const int qs = operand.deps_size;
    if (qs == 0 || (vn.deps_begin == operand.deps_begin && ps == qs)) {
      return;
    }
    if (ps == 0) {
      vn.deps_begin = operand.deps_begin;
      vn.deps_size = qs;
      return;
    }
    const size_t begin = dep_pool_.size();
    dep_pool_.resize(begin + static_cast<size_t>(ps + qs));
    const int* p = dep_pool_.data() + vn.deps_begin;
    const int* q = dep_pool_.data() + operand.deps_begin;
    int* out = dep_pool_.data() + begin;
    const int size = static_cast<int>(std::set_union(p, p + ps, q, q + qs, out) - out);
    if (size == ps || size == qs) {
      dep_pool_.resize(begin);  // one set holds the other
      if (size == qs) {
        vn.deps_begin = operand.deps_begin;
        vn.deps_size = qs;
      }
      return;
    }
    dep_pool_.resize(begin + static_cast<size_t>(size));
    vn.deps_begin = static_cast<int>(begin);
    vn.deps_size = size;
  }

  int ConstVN(uint32_t value) {
    return InternVN(VN::K::kConst, Op::kNop, static_cast<int32_t>(value), 0, -1, -1, 0);
  }

  // Opaque values are keyed by their creation site so both passes agree.
  int OpaqueVN(int site, int position) {
    return InternVN(VN::K::kOpaque, Op::kNop, site, position, -1, -1, 0);
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
    return InternVN(VN::K::kUnary, op, 0, 0, x, -1, 0);
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
    return InternVN(VN::K::kBinary, op, 0, 0, nx, ny, 0);
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
  void MaterializeAll() {
    for (Entry& entry : stack_) {
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
  void ForceStale(bool invalidate_mem, int local, int consumed_top) {
    if (!emitting_) {
      return;
    }
    size_t limit = stack_.size() >= static_cast<size_t>(consumed_top)
                       ? stack_.size() - static_cast<size_t>(consumed_top)
                       : 0;
    for (size_t e = 0; e < limit; ++e) {
      const Entry& entry = stack_[e];
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
    const VN& v = vns_[vn];
    const int* deps = dep_pool_.data() + v.deps_begin;
    return std::binary_search(deps, deps + v.deps_size, local);
  }

  // Forward-table hygiene: an entry whose VN reads state that is about to change
  // must not be handed out afterwards — it would rematerialize with the NEW state.
  // (Stack entries are handled by ForceStale; the tables are the other channel.)
  // A VN whose value was just stored into program local `local` can be reloaded
  // from there — no separate scratch needed. The home is evicted when the slot is
  // overwritten (or may be, via escape).
  void HomeValueInSlot(int local, int value) {
    if (!emitting_ || vns_[value].scratch >= 0 || escaped_[local] || vns_[value].cost < 2) {
      return;  // trivial values are cheaper to rematerialize than to reload
    }
    EvictHome(local);
    SetScratch(value, slots_.Offset(local));
    Write(Kind::kHome, local, value);
  }

  void EvictHome(int local) {
    int value = home_of_[local];
    if (value >= 0) {
      if (vns_[value].scratch == slots_.Offset(local)) {
        SetScratch(value, -1);
      }
      Write(Kind::kHome, local, -1);
    }
  }

  // Local-table entries keyed by `local` or reading it, and mem-table entries
  // whose address or value reads it.
  void ScrubForwardsForLocal(int local) { SweepAll(static_cast<int>(kFirstWatchList) + local); }

  // Local-table entries keyed by an escaped local or reading memory state.
  void ScrubForwardsForMemory() { SweepAll(kMemoryList); }

  void BumpLocalGen(int local) {
    if (!emitting_) {
      Write(Kind::kLocalGen, local, local_gen_[local] + 1);
    }
  }

  // Every escaped local may have been written through its address.
  void ClobberEscapedLocals() {
    for (int local : escaped_locals_) {
      BumpLocalGen(local);
      EvictHome(local);
    }
  }

  void InvalidateMemory() {
    ++mem_gen_;
    SweepAll(kMemStoreList);
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
    const int sizes = static_cast<int>(sizes_.size());
    Sweep(kMemStoreList, [&](const Handle& handle) {
      const int cell = -1 - handle.cell;
      return MayAlias(addr, size, cell / sizes, sizes_[cell % sizes]) || vns_[handle.vn].mem_dep;
    });
    ScrubForwardsForMemory();
  }

  // ---- the simulation ----

  void Simulate(bool emit) {
    const std::vector<Insn>& code = fn_->code;
    const size_t locals = static_cast<size_t>(slots_.size());
    emitting_ = emit;
    counting_ = !emit;
    folded_ = false;
    out_.clear();
    index_map_.assign(code.size(), -1);
    mem_gen_ = 0;
    block_epoch_ = 0;
    next_epoch_ = 0;
    snapshots_.clear();
    pending_.clear();
    trail_.clear();
    segments_.clear();
    snapshot_of_.assign(code.size(), -1);
    for (VN& vn : vns_) {
      vn.scratch = -1;
    }
    home_of_.assign(locals, -1);
    replay_at_ = 0;
    if (!emit) {
      replay_.clear();
      local_gen_.assign(locals, 0);
      local_cell_.assign(locals * sizes_.size(), -1);
      mem_cell_.assign(vns_.size() * sizes_.size(), -1);
      for (size_t list = 0; list < kFirstWatchList + locals; ++list) {
        lists_[list].items.clear();
        lists_[list].cursor = 0;
      }
    }
    frame_size_ = fn_->frame_size;

    stack_.clear();
    bool block_live = true;

    for (size_t i = 0; i < code.size(); ++i) {
      int index = static_cast<int>(i);
      if (flow_->leader[i]) {
        index_map_[i] = static_cast<int>(out_.size());
        bool inherit = inherits_[i] && block_live;
        stack_.clear();
        int depth = flow_->depth[i] < 0 ? 0 : flow_->depth[i];
        for (int d = 0; d < depth; ++d) {
          stack_.push_back(Entry{OpaqueVN(index, d), true});
        }
        if (!inherit) {
          if (!RestoreSnapshot(index)) {
            SweepAll(kLocalClearList);
            SweepAll(kMemStoreList);
            mem_gen_ += 1;                 // fresh generation per block
            block_epoch_ = ++next_epoch_;  // fresh, never-reused VN space
          }
        }
        block_live = flow_->depth[i] >= 0;
      }
      if (!block_live) {
        continue;
      }
      const Insn& insn = code[i];
      SimulateInsn(index, insn);
      if (insn.op == Op::kRet || insn.op == Op::kJmp) {
        block_live = false;
      } else if (i + 1 < code.size() && flow_->leader[i + 1]) {
        // Falling through into the next block: everything still lazy must be
        // physically on the stack at the boundary.
        MaterializeAll();
      }
    }
  }

  int Pop() {
    assert(!stack_.empty());
    int vn = stack_.back().vn;
    stack_.pop_back();
    CountUse(vn);
    return vn;
  }

  // Materializes the top entry (it is about to be consumed by an emitted op).
  void MaterializeTop() {
    Entry& top = stack_.back();
    if (!top.physical) {
      if (emitting_) {
        Materialize(top.vn);
      }
      top.physical = true;
    }
  }

  void SimulateInsn(int site, const Insn& insn) {
    std::vector<Entry>& stack = stack_;
    switch (insn.op) {
      case Op::kNop:
        return;
      case Op::kConstInt:
        stack.push_back(Entry{ConstVN(static_cast<uint32_t>(insn.a)), false});
        return;
      case Op::kConstSym:
        stack.push_back(Entry{InternVN(VN::K::kSym, Op::kNop, insn.a, 0, -1, -1, 0), false});
        return;
      case Op::kAddrLocal:
        stack.push_back(Entry{InternVN(VN::K::kAddrLocal, Op::kNop, insn.a, 0, -1, -1, 0), false});
        return;
      case Op::kLoadLocal: {
        const int local = slots_.At(static_cast<size_t>(site));
        int fwd = LocalForward(local, insn.b);
        if (fwd >= 0) {
          stack.push_back(Entry{fwd, false});
          return;
        }
        int id = InternVN(VN::K::kLoadLocal, Op::kNop, insn.a, insn.b, -1, -1, local_gen_[local],
                          local);
        SetLocalForward(local, insn.b, id);  // subsequent loads reuse this VN
        stack.push_back(Entry{id, false});
        return;
      }
      case Op::kStoreLocal: {
        const int local = slots_.At(static_cast<size_t>(site));
        ForceStale(/*invalidate_mem=*/false, local, /*consumed_top=*/1);
        MaterializeTop();
        int value = Pop();
        BumpLocalGen(local);
        EmitOut(Op::kStoreLocal, insn.a, insn.b);
        ScrubForwardsForLocal(local);
        EvictHome(local);
        if (insn.b == kWordSize && !vns_[value].has_opaque && !DependsOnLocal(value, local)) {
          SetLocalForward(local, insn.b, value);
          HomeValueInSlot(local, value);
        }
        if (escaped_[local]) {
          ++mem_gen_;
          SweepAll(kMemStoreList);
          ScrubForwardsForMemory();
        }
        return;
      }
      case Op::kLoadMem: {
        Entry addr_entry = stack.back();
        int fwd = MemForward(addr_entry.vn, insn.b);
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
        int addr = Pop();
        int id = InternVN(VN::K::kLoadMem, Op::kNop, insn.a, insn.b, addr, -1, mem_gen_);
        SetMemForward(addr, insn.b, id);
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
        ForceStale(/*invalidate_mem=*/true, -1, /*consumed_top=*/2);
        MaterializeAll();
        int value = Pop();
        int addr = Pop();
        EmitOut(Op::kStoreMem, insn.a, insn.b);
        ++mem_gen_;
        InvalidateMemoryForStore(addr, insn.b);
        ClobberEscapedLocals();
        if (insn.b == kWordSize && !vns_[value].has_opaque) {
          SetMemForward(addr, insn.b, value);  // store-to-load forwarding
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
          MaterializeAll();
          EmitOut(Op::kSwap);
        }
        std::swap(stack[stack.size() - 1], stack[stack.size() - 2]);
        return;
      }
      case Op::kJmp:
        MaterializeAll();
        if (snapshot_target_[site] >= 0) {
          TakeSnapshot(snapshot_target_[site]);
        }
        EmitOut(Op::kJmp, insn.a);
        return;
      case Op::kJz:
      case Op::kJnz: {
        Entry cond = stack.back();
        stack.pop_back();
        MaterializeAll();  // survivors cross the block boundary
        if (snapshot_target_[site] >= 0) {
          TakeSnapshot(snapshot_target_[site]);
        }
        if (!cond.physical && vns_[cond.vn].k == VN::K::kConst) {
          folded_ = true;
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
        ForceStale(/*invalidate_mem=*/true, -1, /*consumed_top=*/operands);
        MaterializeAll();
        for (int k = 0; k < operands; ++k) {
          Pop();
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
          MaterializeTop();
          Pop();
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
        MaterializeAll();
        int y = Pop();
        int x = Pop();
        EmitOut(insn.op);
        stack.push_back(Entry{BinaryVN(insn.op, x, y), true});
        return;
      }
      int y = Pop();
      int x = Pop();
      stack.push_back(Entry{BinaryVN(insn.op, x, y), false});
      return;
    }
    assert(false && "unhandled opcode in LVN");
  }

  BytecodeFunction* fn_ = nullptr;
  const Flow* flow_ = nullptr;
  std::vector<char> inherits_;        // per leader: inherits the fallthrough state
  std::vector<int> snapshot_target_;  // per jump: leader it snapshots for, or -1
  std::vector<int> snapshot_of_;      // per leader: index into snapshots_, or -1
  std::vector<Snapshot> snapshots_;
  std::vector<int> pending_;          // snapshots taken, not yet restored, in order
  std::vector<Change> trail_;         // changes since the oldest pending fork
  std::vector<Change> segments_;      // replay segments of re-forked snapshots

  LocalSlots slots_;                  // the dense local indices
  std::vector<char> escaped_;         // per local: its address is taken
  std::vector<int> escaped_locals_;
  std::vector<int> sizes_;            // access sizes the function uses

  std::vector<VN> vns_;
  std::vector<int> intern_;     // open-addressing table of VN ids, keyed by identity
  std::vector<int> dep_pool_;   // read sets of the VNs
  std::vector<int> single_dep_;  // per local: pool offset of the set {local}, or -1
  int block_epoch_ = 0;
  int next_epoch_ = 0;
  std::vector<Entry> stack_;
  std::vector<Insn> out_;
  std::vector<int> index_map_;  // leader index -> its index in out_
  bool emitting_ = false;
  bool counting_ = false;
  bool folded_ = false;  // a branch on a constant was folded
  int frame_size_ = 0;
  int mem_gen_ = 0;
  std::vector<int> local_gen_;    // per local
  std::vector<int> home_of_;      // per local: VN homed there, or -1
  std::vector<int> local_cell_;   // (local, size) -> VN, or -1
  std::vector<int> mem_cell_;     // (addr VN, size) -> VN, or -1
  std::vector<HandleList> lists_;  // the event lists, see kLocalClearList
  std::vector<int> replay_;        // pass 1's value numbers and lookups, in order
  size_t replay_at_ = 0;           // pass 2's position in replay_
  std::vector<Handle> survivors_;  // Sweep scratch
};

// ---- peephole --------------------------------------------------------------------
//
// Three rewrites over the compacted code, to the same fixpoint as running them
// as whole-function rounds:
//  * store/load: `kStoreLocal t; kLoadLocal t` (word size) where t is touched
//    nowhere else and the load starts no block -> (nothing), run to a fixpoint;
//  * dead stores: a kStoreLocal of a slot no kLoadLocal/kAddrLocal names ->
//    kPop (store-to-load forwarding in LVN routinely makes the original slot
//    dead, especially at inline seams);
//  * pop cancellation: a pure value producer followed by a kPop that starts no
//    block:
//      push-like + pop        -> (nothing)
//      unary + pop            -> pop        (the operand is dead too; next round)
//      binary + pop           -> pop, pop
//      loadmem + pop          -> pop        (drops a potentially-trapping load of an
//                                            unused value; MiniC has no volatile)
//      dup + pop              -> (nothing)
// The store/load fixpoint runs first; then up to 8 rounds of dead stores, one
// simultaneous pop-cancellation step (the round limit: stop when it finds
// nothing) and the store/load fixpoint again.
//
// Deleted instructions become kNop in place, unlinked from a list of the live
// ones, and are compacted once at the end; a deleted block leader hands its
// leader mark to the next live instruction, as compaction would. A rewrite can
// only enable another next to where it deleted or rewrote an instruction, or
// (through the per-slot counts) at the stores of a slot whose touch count fell
// to 2 or whose read count fell to 0, so each step visits only those places.
class Peephole {
 public:
  // Rewrites `function`, whose block leaders `leaders` marks (and is left
  // marking the live instructions' leaders; the caller drops it).
  void Run(BytecodeFunction& function, std::vector<char>& leaders, std::vector<int>& new_index) {
    code_ = &function.code;
    const std::vector<Insn>& code = function.code;
    const int size = static_cast<int>(code.size());
    // Every rewrite starts from a store or a pop.
    if (std::none_of(code.begin(), code.end(), [](const Insn& insn) {
          return insn.op == Op::kStoreLocal || insn.op == Op::kPop;
        })) {
      return;
    }
    leader_ = &leaders;
    next_.resize(code.size());
    prev_.resize(code.size());
    for (int i = 0; i < size; ++i) {
      next_[i] = i + 1 < size ? i + 1 : -1;
      prev_[i] = i - 1;
    }
    store_load_work_.clear();
    touch_events_.clear();
    pop_work_.clear();
    IndexSlots(function);
    StoreLoadFixpoint();
    for (int round = 0; round < 8; ++round) {
      DeadStores();
      if (!CancelPops(round)) {
        break;
      }
      StoreLoadFixpoint();
    }
    CompactNops(function, new_index, nullptr);
  }

 private:
  // Per-slot counts over the live code, and each slot's stores.
  void IndexSlots(const BytecodeFunction& function) {
    slots_.Build(function);
    const size_t count = static_cast<size_t>(slots_.size());
    touches_.assign(count, 0);
    reads_.assign(count, 0);
    store_begin_.assign(count + 1, 0);
    for (size_t i = 0; i < function.code.size(); ++i) {
      const int slot = slots_.At(i);
      if (slot >= 0) {
        ++touches_[slot];
        if (function.code[i].op == Op::kStoreLocal) {
          ++store_begin_[slot + 1];
        } else {
          ++reads_[slot];
        }
      }
    }
    for (size_t slot = 0; slot < count; ++slot) {
      store_begin_[slot + 1] += store_begin_[slot];
    }
    stores_.resize(static_cast<size_t>(store_begin_[count]));
    fill_.assign(store_begin_.begin(), store_begin_.end() - 1);
    for (size_t i = 0; i < function.code.size(); ++i) {
      if (function.code[i].op == Op::kStoreLocal) {
        stores_[fill_[slots_.At(i)]++] = static_cast<int>(i);
        if (i + 1 < function.code.size() && function.code[i + 1].op == Op::kLoadLocal) {
          store_load_work_.push_back(static_cast<int>(i));
        }
      }
    }
    dead_slots_.clear();
    for (size_t slot = 0; slot < count; ++slot) {
      if (reads_[slot] == 0 && store_begin_[slot + 1] > store_begin_[slot]) {
        dead_slots_.push_back(static_cast<int>(slot));
      }
    }
  }

  bool Live(int i) const { return (*code_)[i].op != Op::kNop; }

  // The slot instruction `i` touches lost it.
  void Untouch(int i) {
    const int slot = slots_.At(static_cast<size_t>(i));
    if ((*code_)[i].op != Op::kStoreLocal && --reads_[slot] == 0) {
      dead_slots_.push_back(slot);
    }
    if (--touches_[slot] == 2) {
      touch_events_.push_back(slot);
    }
  }

  void Delete(int i) {
    Insn& insn = (*code_)[i];
    if (TouchesLocal(insn.op)) {
      Untouch(i);
    }
    const int p = prev_[i];
    const int q = next_[i];
    if (p >= 0) {
      next_[p] = q;
      store_load_work_.push_back(p);
      pop_work_.push_back(p);
    }
    if (q >= 0) {
      prev_[q] = p;
      if ((*leader_)[i]) {
        (*leader_)[q] = 1;
      }
    }
    insn = Insn{Op::kNop, 0, 0};
  }

  void ToPop(int i) {
    Insn& insn = (*code_)[i];
    if (insn.op == Op::kStoreLocal) {
      Untouch(i);
    }
    insn = Insn{Op::kPop, 0, 0};
    if (prev_[i] >= 0) {
      pop_work_.push_back(prev_[i]);
    }
  }

  void StoreLoadFixpoint() {
    while (!store_load_work_.empty() || !touch_events_.empty()) {
      if (!touch_events_.empty()) {
        const int slot = touch_events_.back();
        touch_events_.pop_back();
        if (touches_[slot] == 2) {
          for (int k = store_begin_[slot]; k < store_begin_[slot + 1]; ++k) {
            store_load_work_.push_back(stores_[k]);
          }
        }
        continue;
      }
      const int i = store_load_work_.back();
      store_load_work_.pop_back();
      const Insn& store = (*code_)[i];
      const int q = next_[i];
      if (store.op != Op::kStoreLocal || q < 0) {
        continue;
      }
      const Insn& load = (*code_)[q];
      if (load.op == Op::kLoadLocal && store.a == load.a && store.b == load.b &&
          store.b == kWordSize && touches_[slots_.At(static_cast<size_t>(i))] == 2 &&
          !(*leader_)[q]) {
        Delete(i);
        Delete(q);
      }
    }
  }

  // Every store to a slot nothing reads any more becomes a kPop.
  void DeadStores() {
    for (int slot : dead_slots_) {
      for (int k = store_begin_[slot]; k < store_begin_[slot + 1]; ++k) {
        if ((*code_)[stores_[k]].op == Op::kStoreLocal) {
          ToPop(stores_[k]);
        }
      }
    }
    dead_slots_.clear();
  }

  enum class Cancel { kNone, kBoth, kProducer, kSplit };

  Cancel CancelAt(int i) const {
    const int q = next_[i];
    if (!Live(i) || q < 0 || (*code_)[q].op != Op::kPop || (*leader_)[q]) {
      return Cancel::kNone;
    }
    const Op op = (*code_)[i].op;
    if (op == Op::kConstInt || op == Op::kConstSym || op == Op::kAddrLocal ||
        op == Op::kLoadLocal || op == Op::kDup) {
      return Cancel::kBoth;
    }
    if (IsUnaryAlu(op) || op == Op::kLoadMem) {
      return Cancel::kProducer;
    }
    return IsBinaryAlu(op) ? Cancel::kSplit : Cancel::kNone;
  }

  // One pop-cancellation step: every pair that matches in the current code is
  // rewritten, none enabled by another rewrite of the same step. Round 0 looks
  // at every instruction, later rounds at the neighbourhoods of changes.
  bool CancelPops(int round) {
    matches_.clear();
    auto consider = [&](int i) {
      Cancel cancel = CancelAt(i);
      if (cancel != Cancel::kNone) {
        matches_.push_back(std::make_pair(i, cancel));
      }
    };
    if (round == 0) {
      for (int i = 0; i < static_cast<int>(code_->size()); ++i) {
        consider(i);
      }
    } else {
      if (round == 1) {
        considered_.assign(code_->size(), 0);
      }
      for (int i : pop_work_) {
        if (considered_[i] != round) {
          considered_[i] = round;
          consider(i);
        }
      }
    }
    pop_work_.clear();
    for (const auto& [i, cancel] : matches_) {
      const int pop = next_[i];
      switch (cancel) {
        case Cancel::kBoth:
          Delete(i);
          Delete(pop);
          break;
        case Cancel::kProducer:
          Delete(i);
          break;
        case Cancel::kSplit:
          ToPop(i);
          break;
        case Cancel::kNone:
          break;
      }
    }
    return !matches_.empty();
  }

  std::vector<Insn>* code_ = nullptr;
  std::vector<char>* leader_ = nullptr;
  std::vector<int> next_;  // live list: next live instruction, or -1
  std::vector<int> prev_;
  LocalSlots slots_;
  std::vector<int> touches_;      // per slot: live loads, stores and addresses
  std::vector<int> reads_;        // per slot: live loads and addresses
  std::vector<int> store_begin_;  // per slot: its stores are stores_[begin, next begin)
  std::vector<int> stores_;
  std::vector<int> fill_;         // IndexSlots scratch: next free place per slot
  std::vector<int> dead_slots_;       // slots whose stores the next DeadStores turns to pops
  std::vector<int> touch_events_;     // slots whose touch count fell to 2
  std::vector<int> store_load_work_;  // instructions to try as the store of a pair
  std::vector<int> pop_work_;         // instructions to try as the producer before a pop
  std::vector<int> considered_;       // per instruction: last round >= 1 it was tried
  std::vector<std::pair<int, Cancel>> matches_;
};

}  // namespace

// ---- the per-function optimizer --------------------------------------------------

struct FunctionOptimizer::Impl {
  // What is known about `function` as it is now.
  bool HasLeaders(const BytecodeFunction& function) const {
    return leaders_of == &function && flow.leader.size() == function.code.size();
  }
  bool HasDepths(const BytecodeFunction& function) const {
    return depths_of == &function && HasLeaders(function);
  }

  void Forget() { leaders_of = depths_of = reachable_of = nullptr; }

  // Computes the whole flow of `function` after deleting the code no path
  // reaches.
  void RemoveUnreachable(BytecodeFunction& function) {
    ComputeDepthsInto(function, flow.depth, work);
    for (size_t i = 0; i < function.code.size(); ++i) {
      if (flow.depth[i] == -1) {
        function.code[i] = Insn{Op::kNop, 0, 0};
      }
    }
    CompactNops(function, new_index, &flow.depth);
    ScanLeaders(function, flow);
    leaders_of = depths_of = reachable_of = &function;
  }

  const BytecodeFunction* leaders_of = nullptr;  // flow.leader, jumps_in, first_jump
  const BytecodeFunction* depths_of = nullptr;   // flow.depth too
  const BytecodeFunction* reachable_of = nullptr;  // no unreachable instruction
  Flow flow;
  std::vector<int> work;       // ComputeDepthsInto scratch
  std::vector<int> new_index;  // CompactNops scratch
  Lvn lvn;
  Peephole peephole;
};

FunctionOptimizer::FunctionOptimizer() : impl_(std::make_unique<Impl>()) {}

FunctionOptimizer::~FunctionOptimizer() = default;

void FunctionOptimizer::Invalidate() { impl_->Forget(); }

void FunctionOptimizer::SimplifyControlFlow(BytecodeFunction& function) {
  impl_->RemoveUnreachable(function);
}

void FunctionOptimizer::LocalValueNumber(BytecodeFunction& function) {
  if (!impl_->HasDepths(function)) {
    ComputeDepthsInto(function, impl_->flow.depth, impl_->work);
    ScanLeaders(function, impl_->flow);
  }
  // LVN emits only the blocks its input reaches and keeps every edge but
  // those of the branches it folds, so without a fold all its code is
  // reachable.
  const bool folded = impl_->lvn.Run(function, impl_->flow);
  impl_->Forget();
  if (!folded) {
    impl_->reachable_of = &function;
  }
}

void FunctionOptimizer::ThreadJumpChains(BytecodeFunction& function) {
  // Only a retargeted jump can leave code unreachable, or code LVN left so.
  if (ThreadJumps(function) || impl_->reachable_of != &function) {
    impl_->RemoveUnreachable(function);
    return;
  }
  CompactNops(function, impl_->new_index, nullptr);
  ScanLeaders(function, impl_->flow);
  impl_->Forget();
  impl_->leaders_of = impl_->reachable_of = &function;
}

void FunctionOptimizer::PeepholeOptimize(BytecodeFunction& function) {
  if (!impl_->HasLeaders(function)) {
    CompactNops(function, impl_->new_index, nullptr);
    ScanLeaders(function, impl_->flow);
  }
  impl_->peephole.Run(function, impl_->flow.leader, impl_->new_index);  // uses up the leaders
  impl_->Forget();
}

void FunctionOptimizer::Optimize(BytecodeFunction& function) {
  SimplifyControlFlow(function);
  LocalValueNumber(function);
  ThreadJumpChains(function);
  PeepholeOptimize(function);
}

namespace {

// kCall references per function index across the whole object (data relocations
// count as extra references so address-taken functions are never "single-call").
class CallSiteCounts {
 public:
  explicit CallSiteCounts(const ObjectFile& object)
      : object_(object), counts_(object.functions.size(), 0) {
    for (const BytecodeFunction& function : object.functions) {
      Add(function.code, 1);
    }
    for (const DataReloc& reloc : object.data_relocs) {
      Count(reloc.symbol, 2);
    }
  }

  int operator[](int function) const { return counts_[function]; }

  // The call `call` was replaced by a copy of `callee`'s code.
  void Spliced(const Insn& call, const BytecodeFunction& callee) {
    Count(call.a, -1);
    Add(callee.code, 1);
  }

  // Counts the references in `code` with `sign` +1, or takes them out with -1.
  void Add(const std::vector<Insn>& code, int sign) {
    for (const Insn& insn : code) {
      if (insn.op == Op::kCall) {
        Count(insn.a, sign);
      } else if (insn.op == Op::kConstSym) {
        Count(insn.a, 2 * sign);  // address taken: disqualify single-call inlining
      }
    }
  }

 private:
  void Count(int symbol_index, int weight) {
    const ObjSymbol& symbol = object_.symbols()[symbol_index];
    if (symbol.section == ObjSymbol::Section::kText && symbol.index >= 0 &&
        symbol.index < static_cast<int>(counts_.size())) {
      counts_[symbol.index] += weight;
    }
  }

  const ObjectFile& object_;
  std::vector<int> counts_;
};

}  // namespace

SpliceCheck::SpliceCheck(const std::vector<BytecodeFunction>& functions)
    : functions_(functions), reaches_bare_return_(functions.size(), -1) {}

bool SpliceCheck::CanSplice(const Insn& call, int callee) {
  const BytecodeFunction& function = functions_[callee];
  if (function.returns_value != CallReturns(call.b) || function.param_count != CallArgc(call.b)) {
    return false;
  }
  if (reaches_bare_return_[callee] < 0) {
    reaches_bare_return_[callee] = ReachesBareReturn(function) ? 1 : 0;
  }
  return reaches_bare_return_[callee] == 0;
}

void SpliceCheck::Changed(int function) { reaches_bare_return_[function] = -1; }

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

namespace {

// Inlines direct calls to earlier-defined callees into `function_index`, within
// the options' inline limit and kCallerGrowthLimit, and returns the number of
// call sites inlined.
// `call_sites` must count the object's code as it is; the callees are finished,
// so `check` stays valid across the functions of one object.
int InlineCalls(ObjectFile& object, int function_index, const CodegenOptions& options,
                CallSiteCounts& call_sites, SpliceCheck& check) {
  int inlined = 0;
  bool progress = true;
  while (progress &&
         static_cast<int>(object.functions[function_index].code.size()) < kCallerGrowthLimit) {
    progress = false;
    BytecodeFunction& caller = object.functions[function_index];
    for (size_t p = 0; p < caller.code.size(); ++p) {
      const Insn call = caller.code[p];
      if (call.op != Op::kCall) {
        continue;
      }
      const ObjSymbol& symbol = object.symbols()[call.a];
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
      bool single = !symbol.global && call_sites[symbol.index] == 1 &&
                    static_cast<int>(callee.code.size()) <= kSingleCallInlineLimit;
      if (!small && !single) {
        continue;
      }
      if (!check.CanSplice(call, symbol.index)) {
        continue;
      }
      SpliceCallee(caller, p, callee);
      call_sites.Spliced(call, callee);
      ++inlined;
      progress = true;
      break;  // indices changed; rescan
    }
  }
  return inlined;
}

// Removes local functions unreachable from any global text symbol or data reloc.
void RemoveDeadLocalFunctions(ObjectFile& object) {
  std::set<int> live_functions;
  std::vector<int> work;
  auto add_symbol = [&](int symbol_index) {
    const ObjSymbol& symbol = object.symbols()[symbol_index];
    if (symbol.section == ObjSymbol::Section::kText && symbol.index >= 0 &&
        live_functions.insert(symbol.index).second) {
      work.push_back(symbol.index);
    }
  };
  for (size_t s = 0; s < object.symbols().size(); ++s) {
    if (object.symbols()[s].section == ObjSymbol::Section::kText && object.symbols()[s].global) {
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
  for (ObjSymbol& symbol : object.symbols()) {
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

}  // namespace

void OptimizeObject(ObjectFile& object, const CodegenOptions& options) {
  std::vector<PassStats> rows;
  for (const char* pass : {"inline", "simplify", "lvn", "jump-thread", "peephole", "dce-local"}) {
    rows.push_back(PassStats{pass, "object"});
  }
  // Functions are the OUTER loop: every pass finishes function f before any
  // pass touches f+1, so callees are fully optimized before later callers
  // consider them for inlining (the per-TU defs-before-uses contract).
  FunctionOptimizer optimizer;
  CallSiteCounts call_sites(object);
  SpliceCheck check(object.functions);
  for (size_t f = 0; f < object.functions.size(); ++f) {
    BytecodeFunction& function = object.functions[f];
    auto insns = [&] { return static_cast<long long>(function.code.size()); };
    RunPassRow(rows[0], insns, [&] {
      if (InlineCalls(object, static_cast<int>(f), options, call_sites, check) > 0) {
        optimizer.Invalidate();
      }
    });
    call_sites.Add(function.code, -1);  // counted again once f is finished
    RunPassRow(rows[1], insns, [&] { optimizer.SimplifyControlFlow(function); });
    RunPassRow(rows[2], insns, [&] { optimizer.LocalValueNumber(function); });
    RunPassRow(rows[3], insns, [&] { optimizer.ThreadJumpChains(function); });
    RunPassRow(rows[4], insns, [&] { optimizer.PeepholeOptimize(function); });
    call_sites.Add(function.code, 1);
  }
  RunPassRow(rows[5], [&] { return InsnCount(object.functions); },
             [&] { RemoveDeadLocalFunctions(object); });
  if (options.pass_stats != nullptr) {
    MergePassStats(*options.pass_stats, rows);
  }
}

}  // namespace knit
