// MiniC parser. Produces an untyped TranslationUnit; run Sema (sema.h) afterwards to
// annotate and check types. Typedef names and enum constants are resolved here
// (enum constants are substituted as integer literals, which conveniently makes them
// collision-free when translation units are merged by the flattener).
#ifndef SRC_MINIC_CPARSER_H_
#define SRC_MINIC_CPARSER_H_

#include <string>
#include <string_view>

#include "src/minic/ast.h"
#include "src/minic/clexer.h"
#include "src/minic/types.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"

namespace knit {

// Parses `file` (resolving #include through `sources`) into a TranslationUnit.
Result<TranslationUnit> ParseC(const SourceView& sources, const std::string& file,
                               TypeTable& types, Diagnostics& diags);

// Parses a bare string (used heavily by tests and by generated code).
Result<TranslationUnit> ParseCString(std::string_view source, const std::string& name,
                                     TypeTable& types, Diagnostics& diags);

// Parses several files into ONE TranslationUnit (a Knit atomic unit may list several
// .c files; they are compiled together as the unit's content).
Result<TranslationUnit> ParseCFiles(const SourceView& sources,
                                    const std::vector<std::string>& files,
                                    const std::string& unit_name, TypeTable& types,
                                    Diagnostics& diags);

}  // namespace knit

#endif  // SRC_MINIC_CPARSER_H_
