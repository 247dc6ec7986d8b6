#include "src/driver/build_cache.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/support/hash.h"
#include "src/vm/verify.h"

namespace knit {

namespace {

// File layout: the magic, the payload, then an FNV-64 checksum of the payload
// (8 bytes, little-endian). A file whose checksum does not match is corrupt.
constexpr char kMagic[8] = {'K', 'O', 'B', 'J', '0', '0', '0', '2'};
constexpr size_t kChecksumSize = 8;
// The largest frame a cached function may have: the VM's default data memory.
constexpr int kMaxFrameBytes = 1 << 24;

void PutU32(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void PutI32(std::string& out, int32_t value) { PutU32(out, static_cast<uint32_t>(value)); }

uint64_t PayloadChecksum(const std::string& bytes, size_t begin, size_t end) {
  return HashBytes(bytes.data() + begin, end - begin);
}

void PutString(std::string& out, const std::string& text) {
  PutU32(out, static_cast<uint32_t>(text.size()));
  out.append(text);
}

class Reader {
 public:
  // Reads bytes[start, end).
  Reader(const std::string& bytes, size_t start, size_t end)
      : bytes_(bytes), pos_(start), end_(end) {}

  bool ok() const { return ok_; }

  uint32_t U32() {
    if (pos_ + 4 > end_) {
      ok_ = false;
      return 0;
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return value;
  }

  int32_t I32() { return static_cast<int32_t>(U32()); }

  std::string Str() {
    uint32_t size = U32();
    if (!ok_ || pos_ + size > end_) {
      ok_ = false;
      return "";
    }
    std::string out = bytes_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  std::vector<uint8_t> Raw(uint32_t size) {
    if (!ok_ || pos_ + size > end_) {
      ok_ = false;
      return {};
    }
    std::vector<uint8_t> out(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                             bytes_.begin() + static_cast<ptrdiff_t>(pos_ + size));
    pos_ += size;
    return out;
  }

  bool AtEnd() const { return pos_ == end_; }

 private:
  const std::string& bytes_;
  size_t pos_;
  size_t end_;
  bool ok_ = true;
};

// True when `object` could have come out of the compiler: every index lands
// inside what it indexes (symbol operands and relocations name a symbol,
// defined symbols lie inside their section, jumps stay inside their function
// and local accesses inside its frame), every load and store is 1 or 4 bytes
// wide, only a value-returning function returns a value, no instruction is of
// the linked form, every path keeps the evaluation stack consistent, and no
// frame outgrows the VM's memory. A cached object that passes its checksum but
// not this (written by another build of the format, or edited) would otherwise
// be linked and optimized as if it were trusted.
bool WellFormed(const ObjectFile& object) {
  const int64_t symbols = static_cast<int64_t>(object.symbols().size());
  const int64_t data = static_cast<int64_t>(object.data.size());
  for (const ObjSymbol& symbol : object.symbols()) {
    if (symbol.section == ObjSymbol::Section::kText &&
        (symbol.index < 0 || static_cast<size_t>(symbol.index) >= object.functions.size())) {
      return false;
    }
    if (symbol.section == ObjSymbol::Section::kData &&
        (symbol.index < 0 || symbol.size < 0 || symbol.index + int64_t{symbol.size} > data)) {
      return false;
    }
  }
  for (const BytecodeFunction& function : object.functions) {
    if (function.frame_size < 0 || function.frame_size > kMaxFrameBytes ||
        function.param_count < 0) {
      return false;
    }
    const int64_t size = static_cast<int64_t>(function.code.size());
    for (const Insn& insn : function.code) {
      switch (insn.op) {
        case Op::kJmp:
        case Op::kJz:
        case Op::kJnz:
          if (insn.a < 0 || insn.a >= size) {
            return false;
          }
          break;
        case Op::kCall:
        case Op::kConstSym:
          if (insn.a < 0 || insn.a >= symbols) {
            return false;
          }
          break;
        case Op::kLoadLocal:
        case Op::kStoreLocal:
          if (!IsAccessSize(insn.b) || insn.a < 0 ||
              insn.a + int64_t{insn.b} > function.frame_size) {
            return false;
          }
          break;
        case Op::kLoadMem:
        case Op::kStoreMem:
          if (!IsAccessSize(insn.b)) {
            return false;
          }
          break;
        case Op::kRet:
          if (insn.a != 0 && !function.returns_value) {
            return false;
          }
          break;
        case Op::kAddrLocal:
          if (insn.a < 0 || insn.a >= function.frame_size) {
            return false;
          }
          break;
        case Op::kCallBound:
          return false;
        default:
          break;
      }
    }
    std::string error;
    ComputeDepths(function, &error);
    if (!error.empty()) {
      return false;
    }
  }
  for (const DataReloc& reloc : object.data_relocs) {
    if (reloc.symbol < 0 || reloc.symbol >= symbols || reloc.data_offset < 0 ||
        reloc.data_offset + int64_t{4} > data) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string SerializeObjectFile(const ObjectFile& object) {
  std::string out(kMagic, sizeof(kMagic));
  PutString(out, object.name);

  PutU32(out, static_cast<uint32_t>(object.symbols().size()));
  for (const ObjSymbol& symbol : object.symbols()) {
    PutString(out, symbol.name());
    PutU32(out, static_cast<uint32_t>(symbol.section));
    PutU32(out, symbol.global ? 1 : 0);
    PutI32(out, symbol.index);
    PutI32(out, symbol.size);
    PutI32(out, symbol.align);
  }

  PutU32(out, static_cast<uint32_t>(object.functions.size()));
  for (const BytecodeFunction& function : object.functions) {
    PutString(out, function.name);
    PutI32(out, function.frame_size);
    PutI32(out, function.param_count);
    PutU32(out, function.variadic ? 1 : 0);
    PutU32(out, function.returns_value ? 1 : 0);
    PutI32(out, function.text_offset);
    PutU32(out, static_cast<uint32_t>(function.code.size()));
    for (const Insn& insn : function.code) {
      PutU32(out, static_cast<uint32_t>(insn.op));
      PutI32(out, insn.a);
      PutI32(out, insn.b);
    }
  }

  PutU32(out, static_cast<uint32_t>(object.data.size()));
  out.append(reinterpret_cast<const char*>(object.data.data()), object.data.size());

  PutU32(out, static_cast<uint32_t>(object.data_relocs.size()));
  for (const DataReloc& reloc : object.data_relocs) {
    PutI32(out, reloc.data_offset);
    PutI32(out, reloc.symbol);
  }
  uint64_t checksum = PayloadChecksum(out, sizeof(kMagic), out.size());
  PutU32(out, static_cast<uint32_t>(checksum));
  PutU32(out, static_cast<uint32_t>(checksum >> 32));
  return out;
}

bool DeserializeObjectFile(const std::string& bytes, ObjectFile* out) {
  if (bytes.size() < sizeof(kMagic) + kChecksumSize ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  const size_t payload_end = bytes.size() - kChecksumSize;
  Reader trailer(bytes, payload_end, bytes.size());
  uint64_t checksum = trailer.U32();
  checksum |= static_cast<uint64_t>(trailer.U32()) << 32;
  if (checksum != PayloadChecksum(bytes, sizeof(kMagic), payload_end)) {
    return false;
  }
  Reader reader(bytes, sizeof(kMagic), payload_end);
  ObjectFile object;
  object.name = reader.Str();

  uint32_t symbol_count = reader.U32();
  for (uint32_t i = 0; reader.ok() && i < symbol_count; ++i) {
    std::string name = reader.Str();
    uint32_t section = reader.U32();
    if (section > static_cast<uint32_t>(ObjSymbol::Section::kData)) {
      return false;
    }
    const bool global = reader.U32() != 0;
    const int32_t index = reader.I32();
    const int32_t size = reader.I32();
    const int32_t align = reader.I32();
    if (object.Add(ObjSymbol(std::move(name), static_cast<ObjSymbol::Section>(section), global,
                             index, size, align)) < 0) {
      return false;  // two symbols of one name: the compiler never writes that
    }
  }

  uint32_t function_count = reader.U32();
  for (uint32_t i = 0; reader.ok() && i < function_count; ++i) {
    BytecodeFunction function;
    function.name = reader.Str();
    function.frame_size = reader.I32();
    function.param_count = reader.I32();
    function.variadic = reader.U32() != 0;
    function.returns_value = reader.U32() != 0;
    function.text_offset = reader.I32();
    uint32_t insn_count = reader.U32();
    for (uint32_t k = 0; reader.ok() && k < insn_count; ++k) {
      Insn insn;
      uint32_t op = reader.U32();
      if (op > static_cast<uint32_t>(Op::kNop)) {
        return false;
      }
      insn.op = static_cast<Op>(op);
      insn.a = reader.I32();
      insn.b = reader.I32();
      function.code.push_back(insn);
    }
    object.functions.push_back(std::move(function));
  }

  uint32_t data_size = reader.U32();
  object.data = reader.Raw(data_size);

  uint32_t reloc_count = reader.U32();
  for (uint32_t i = 0; reader.ok() && i < reloc_count; ++i) {
    DataReloc reloc;
    reloc.data_offset = reader.I32();
    reloc.symbol = reader.I32();
    object.data_relocs.push_back(reloc);
  }

  if (!reader.ok() || !reader.AtEnd() || !WellFormed(object)) {
    return false;
  }
  *out = std::move(object);
  return true;
}

BuildCache::BuildCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code error;
    std::filesystem::create_directories(dir_, error);
  }
}

std::string BuildCache::PathFor(uint64_t key) const {
  return dir_ + "/knit-" + HexDigest(key) + ".kobj";
}

bool BuildCache::Lookup(uint64_t key, ObjectFile* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memory_.find(key);
  if (it != memory_.end()) {
    *out = it->second;
    return true;
  }
  if (dir_.empty()) {
    return false;
  }
  std::ifstream in(PathFor(key), std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ObjectFile object;
  if (!DeserializeObjectFile(buffer.str(), &object)) {
    return false;  // stale format or corrupt file: treat as a miss
  }
  memory_.emplace(key, object);
  *out = std::move(object);
  return true;
}

void BuildCache::Store(uint64_t key, const ObjectFile& object) {
  std::lock_guard<std::mutex> lock(mutex_);
  memory_.insert_or_assign(key, object);
  if (dir_.empty()) {
    return;
  }
  std::ofstream out(PathFor(key), std::ios::binary | std::ios::trunc);
  if (out) {
    std::string bytes = SerializeObjectFile(object);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

size_t BuildCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.size();
}

}  // namespace knit
