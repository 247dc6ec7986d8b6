// MiniC -> bytecode compiler. Produces a relocatable ObjectFile whose code refers to
// symbols by index (kConstSym / kCall); src/ld resolves them. One translation unit
// becomes one object — exactly the compilation granularity that makes flattening
// matter: the optimizer (src/vm/optimize.h) can only inline within an object.
#ifndef SRC_VM_CODEGEN_H_
#define SRC_VM_CODEGEN_H_

#include <string>
#include <vector>

#include "src/minic/ast.h"
#include "src/minic/sema.h"
#include "src/obj/object.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"
#include "src/vm/optimize.h"

namespace knit {

struct PassStats;

struct CodegenOptions {
  // Optimization level: 0 = none, 1 = the per-TU optimizer (inline + LVN +
  // peephole; the historical default), 2 = additionally enables the link-time
  // image passes (a pipeline-level decision; codegen itself treats 2 like 1).
  int opt_level = 1;
  int inline_limit = kInlineLimit;  // max size for inlining a multiply-called function

  // Digest of the recorded profile steering this build (0 = no profile). Codegen
  // itself ignores it — the PGO passes run at image scope — but it IS part of the
  // cache key: the same sources built against a different profile must relink,
  // never reuse a PGO'd artifact (see HashCodegenOptions in src/driver).
  uint64_t profile_digest = 0;

  // When set, the object pipeline appends per-pass statistics here
  // (not part of the cache key: stats are observation, not configuration).
  std::vector<PassStats>* pass_stats = nullptr;

  // Applies gcc-style flag spellings used in Knit `flags` declarations on top of
  // the current values: -O0/-O/-O1/-O2, -finline-limit=N, -fno-inline. A
  // -finline-limit value that is not a non-negative int is skipped and, when
  // `error` is given, described there; the return value is false if any was.
  bool ApplyFlags(const std::vector<std::string>& flags, std::string* error = nullptr);
};

// Compiles a Sema-checked TU. `object_name` labels the resulting object.
Result<ObjectFile> CompileTranslationUnit(const TranslationUnit& unit, const SemaInfo& info,
                                          TypeTable& types, const CodegenOptions& options,
                                          const std::string& object_name, Diagnostics& diags);

}  // namespace knit

#endif  // SRC_VM_CODEGEN_H_
