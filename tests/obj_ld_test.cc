// Object-file surgery (objcopy) and bag-of-objects linker tests: archive pull
// semantics, override-by-ordering, duplicate/undefined diagnostics, localization,
// duplication for multiple instantiation, data relocations (function pointers
// in initialized data), and LinkAppend, the incremental link a hot swap uses.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/ld/link.h"
#include "src/minic/cparser.h"
#include "src/minic/sema.h"
#include "src/obj/object.h"
#include "src/vm/codegen.h"
#include "src/vm/machine.h"

namespace knit {
namespace {

ObjectFile CompileOrDie(const std::string& name, const std::string& source) {
  Diagnostics diags;
  TypeTable types;
  Result<TranslationUnit> unit = ParseCString(source, name, types, diags);
  EXPECT_TRUE(unit.ok()) << diags.ToString();
  Result<SemaInfo> info = AnalyzeTranslationUnit(unit.value(), types, diags);
  EXPECT_TRUE(info.ok()) << diags.ToString();
  Result<ObjectFile> object =
      CompileTranslationUnit(unit.value(), info.value(), types, CodegenOptions(), name, diags);
  EXPECT_TRUE(object.ok()) << diags.ToString();
  return object.take();
}

Result<LinkResult> TryLink(std::vector<LinkItem> items, std::string* error,
                           std::vector<std::string> natives = {}) {
  Diagnostics diags;
  LinkOptions options;
  options.natives = std::move(natives);
  Result<LinkResult> linked = Link(std::move(items), options, diags);
  if (error != nullptr) {
    *error = diags.ToString();
  }
  return linked;
}

TEST(Objcopy, RenameFollowsReferences) {
  ObjectFile object = CompileOrDie("a.o", "extern int ext(int);\n"
                                          "int mine(int x) { return ext(x) + 1; }\n");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(object, {{"mine", "inst__mine"}, {"ext", "other__fn"}}, diags).ok());
  EXPECT_GE(object.FindSymbol("inst__mine"), 0);
  EXPECT_GE(object.FindSymbol("other__fn"), 0);
  EXPECT_LT(object.FindSymbol("mine"), 0);
  EXPECT_LT(object.FindSymbol("ext"), 0);
}

TEST(Objcopy, RenameCollisionIsError) {
  ObjectFile object = CompileOrDie("a.o", "int f(void) { return 1; }\nint g(void) { return 2; }\n");
  const int f = object.FindSymbol("f");
  const int g = object.FindSymbol("g");
  ASSERT_NE(f, g);
  Diagnostics diags;
  EXPECT_FALSE(ObjcopyRename(object, {{"f", "g"}}, diags).ok());
  EXPECT_NE(diags.FirstError().find("collides"), std::string::npos);
  EXPECT_EQ(object.FindSymbol("f"), f);  // the object is unchanged
  EXPECT_EQ(object.FindSymbol("g"), g);
}

TEST(Objcopy, SwapIsAllowed) {
  ObjectFile object = CompileOrDie("a.o", "int f(void) { return 1; }\nint g(void) { return 2; }\n");
  const int f = object.FindSymbol("f");
  const int g = object.FindSymbol("g");
  ASSERT_NE(f, g);
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(object, {{"f", "g"}, {"g", "f"}}, diags).ok());
  EXPECT_EQ(object.FindSymbol("g"), f);  // each symbol keeps its index, not its name
  EXPECT_EQ(object.FindSymbol("f"), g);
  std::vector<LinkItem> items;
  items.emplace_back(std::move(object));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("f").value, 2u);
  EXPECT_EQ(machine.Call("g").value, 1u);
}

// Two imports bound to one export: both undefined symbols take the export's
// name, and the object keeps one symbol of that name.
TEST(Objcopy, ImportsRenamedOntoOneNameBecomeOneSymbol) {
  ObjectFile object = CompileOrDie("c.o", "extern int a(void);\nextern int b(void);\n"
                                          "int use(void) { return a() * 10 + b(); }\n");
  const size_t symbols = object.symbols().size();
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(object, {{"a", "x"}, {"b", "x"}}, diags).ok());
  EXPECT_EQ(object.symbols().size(), symbols - 1);
  EXPECT_LT(object.FindSymbol("a"), 0);
  EXPECT_LT(object.FindSymbol("b"), 0);
  ASSERT_GE(object.FindSymbol("use"), 0);
  EXPECT_EQ(object.symbols()[object.FindSymbol("use")].name(), "use");
  std::vector<LinkItem> items;
  items.emplace_back(std::move(object));
  items.emplace_back(CompileOrDie("x.o", "int x(void) { return 3; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("use").value, 33u);
}

// A definition and an import renamed onto one name would be two symbols of one
// name: an error, and the object is unchanged.
TEST(Objcopy, DefinitionAndImportRenamedOntoOneNameIsError) {
  ObjectFile object = CompileOrDie("a.o", "extern int a(void);\nint b(void) { return a(); }\n");
  const int a = object.FindSymbol("a");
  const int b = object.FindSymbol("b");
  Diagnostics diags;
  EXPECT_FALSE(ObjcopyRename(object, {{"a", "x"}, {"b", "x"}}, diags).ok());
  EXPECT_NE(diags.FirstError().find("collides"), std::string::npos);
  EXPECT_EQ(object.FindSymbol("a"), a);
  EXPECT_EQ(object.FindSymbol("b"), b);
  EXPECT_LT(object.FindSymbol("x"), 0);
}

TEST(Objcopy, LocalizeHidesFromOtherObjects) {
  ObjectFile provider = CompileOrDie("p.o", "int hidden(void) { return 7; }\n");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyLocalize(provider, "hidden", diags).ok());
  ObjectFile consumer = CompileOrDie("c.o", "extern int hidden(void);\n"
                                            "int use(void) { return hidden(); }\n");
  std::vector<LinkItem> items;
  items.emplace_back(std::move(provider));
  items.emplace_back(std::move(consumer));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("undefined reference to 'hidden'"), std::string::npos) << error;
}

TEST(Objcopy, LocalizedSymbolsDoNotClash) {
  // Two objects each with a localized 'state' global and a renamed accessor.
  auto make = [](const std::string& tag, int value) {
    ObjectFile object =
        CompileOrDie(tag + ".o", "int state = " + std::to_string(value) + ";\n"
                                 "int get(void) { return state; }\n");
    Diagnostics diags;
    EXPECT_TRUE(ObjcopyRename(object, {{"get", "get_" + tag}}, diags).ok());
    EXPECT_TRUE(ObjcopyLocalize(object, "state", diags).ok());
    return object;
  };
  std::vector<LinkItem> items;
  items.emplace_back(make("a", 11));
  items.emplace_back(make("b", 22));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("get_a").value, 11u);
  EXPECT_EQ(machine.Call("get_b").value, 22u);
}

TEST(Objcopy, DuplicateGivesIndependentState) {
  ObjectFile base = CompileOrDie("base.o", "static int count = 0;\n"
                                           "int bump(void) { count++; return count; }\n");
  ObjectFile copy = ObjcopyDuplicate(base, "copy.o");
  Diagnostics diags;
  ASSERT_TRUE(ObjcopyRename(base, {{"bump", "bump_a"}}, diags).ok());
  ASSERT_TRUE(ObjcopyRename(copy, {{"bump", "bump_b"}}, diags).ok());
  std::vector<LinkItem> items;
  items.emplace_back(std::move(base));
  items.emplace_back(std::move(copy));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  machine.Call("bump_a");
  machine.Call("bump_a");
  EXPECT_EQ(machine.Call("bump_a").value, 3u);
  EXPECT_EQ(machine.Call("bump_b").value, 1u);  // duplicated object, its own counter
}

TEST(Linker, DuplicateDefinitionIsError) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "int f(void) { return 1; }\n"));
  items.emplace_back(CompileOrDie("b.o", "int f(void) { return 2; }\n"));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("multiple definition of 'f'"), std::string::npos) << error;
}

TEST(Linker, ArchiveMembersPulledOnDemand) {
  Archive library;
  library.name = "libutil.a";
  library.members.push_back(CompileOrDie("used.o", "int used(void) { return 5; }\n"));
  library.members.push_back(CompileOrDie("unused.o", "int unused(void) { return 6; }\n"));
  ObjectFile main_object = CompileOrDie("main.o", "extern int used(void);\n"
                                                  "int main_fn(void) { return used(); }\n");
  std::vector<LinkItem> items;
  items.emplace_back(std::move(main_object));
  items.emplace_back(std::move(library));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  // Only the referenced member participates.
  EXPECT_GE(linked.value().image.FindFunction("used"), 0);
  EXPECT_LT(linked.value().image.FindFunction("unused"), 0);
}

TEST(Linker, ArchiveTransitivePull) {
  // main needs a(); a.o needs b(); both in the archive: two rounds of pulling.
  Archive library;
  library.members.push_back(CompileOrDie("b.o", "int b(void) { return 2; }\n"));
  library.members.push_back(CompileOrDie("a.o", "extern int b(void);\n"
                                                "int a(void) { return b() + 1; }\n"));
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("main.o", "extern int a(void);\n"
                                            "int main_fn(void) { return a(); }\n"));
  items.emplace_back(std::move(library));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("main_fn").value, 3u);
}

TEST(Linker, OverrideByListingObjectBeforeArchive) {
  // The OSKit's pre-Knit component replacement idiom (paper section 5.1): "a
  // careful ordering of ld's arguments would allow a programmer to override an
  // existing component."
  Archive library;
  library.members.push_back(CompileOrDie("orig.o", "int serve(void) { return 1; }\n"));
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("main.o", "extern int serve(void);\n"
                                            "int main_fn(void) { return serve(); }\n"));
  items.emplace_back(CompileOrDie("replacement.o", "int serve(void) { return 99; }\n"));
  items.emplace_back(std::move(library));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("main_fn").value, 99u);  // archive member never pulled
}

TEST(Linker, UndefinedReferenceIsError) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "extern int ghost(void);\n"
                                         "int f(void) { return ghost(); }\n"));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("undefined reference to 'ghost'"), std::string::npos) << error;
}

// A prototype in one unit, a variable in the other: C links this and calls
// through garbage; the linker reports it, naming both ends.
TEST(Linker, CallToDataSymbolIsError) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "extern int counter(void);\n"
                                         "int f(void) { return counter(); }\n"));
  items.emplace_back(CompileOrDie("b.o", "int counter = 3;\n"));
  std::string error;
  EXPECT_FALSE(TryLink(std::move(items), &error).ok());
  EXPECT_NE(error.find("'f' calls 'counter', which is data, not a function"),
            std::string::npos)
      << error;
}

TEST(Linker, NativesResolveRemainingUndefineds) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "extern int host_fn(int);\n"
                                         "int f(int x) { return host_fn(x) * 2; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error, {"host_fn"});
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  machine.BindNative("host_fn", [](Machine&, std::span<const uint32_t> args) {
    return args[0] + 100;
  });
  EXPECT_EQ(machine.Call("f", {5}).value, 210u);
}

TEST(Linker, FunctionPointerInInitializedData) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", R"(
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int (*g_table[2])(int) = { twice, thrice };
int call(int which, int x) { return g_table[which](x); }
)"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Machine machine(linked.value().image);
  EXPECT_EQ(machine.Call("call", {0, 21}).value, 42u);
  EXPECT_EQ(machine.Call("call", {1, 21}).value, 63u);
}

TEST(Linker, TextPlacementAndSymbols) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "int f(void) { return 1; }\n"));
  items.emplace_back(CompileOrDie("b.o", "int g(void) { return 2; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  const Image& image = linked.value().image;
  EXPECT_GT(image.text_bytes, 0);
  ASSERT_EQ(linked.value().placements.size(), 2u);
  EXPECT_EQ(linked.value().placements[0].name, "a.o");
  // Functions placed in order, 16-byte aligned.
  EXPECT_EQ(image.functions[0].text_offset % 16, 0);
  EXPECT_GT(image.functions[1].text_offset, image.functions[0].text_offset);
}

// ---- LinkAppend ----------------------------------------------------------------

// `source` compiled as instance `component` (every function stamped with it).
ObjectFile InstanceObject(const std::string& name, const std::string& component,
                          const std::string& source) {
  ObjectFile object = CompileOrDie(name, source);
  for (BytecodeFunction& function : object.functions) {
    function.component = component;
  }
  return object;
}

// Two instances, A -> B, with B swappable: A's call to b_get goes through a slot.
Image LinkAToSwappableB() {
  std::vector<LinkItem> items;
  items.emplace_back(InstanceObject("a.o", "A",
                                    "extern int b_get(void);\n"
                                    "int a_use(void) { return b_get(); }\n"));
  items.emplace_back(InstanceObject("b.o", "B",
                                    "int b_get(void) { return 7; }\n"
                                    "int b_twice(void) { return 2 * b_get(); }\n"));
  Diagnostics diags;
  LinkOptions options;
  options.swappable_components = {"B"};
  Result<LinkResult> linked = Link(std::move(items), options, diags);
  EXPECT_TRUE(linked.ok()) << diags.ToString();
  return linked.take().image;
}

// The first kCall/kCallBound in `function`, or nullptr.
const Insn* FirstCall(const BytecodeFunction& function) {
  for (const Insn& insn : function.code) {
    if (insn.op == Op::kCall || insn.op == Op::kCallBound) {
      return &insn;
    }
  }
  return nullptr;
}

TEST(LinkAppend, CallIntoASwappableComponentIsBound) {
  Image image = LinkAToSwappableB();
  // Both of B's functions have slots, in symbol order.
  ASSERT_EQ(image.bindings.size(), 2u);
  ASSERT_EQ(image.bindings[0].symbol, "b_get");
  const int slot = 0;
  Diagnostics diags;
  ASSERT_TRUE(LinkAppend(image,
                         InstanceObject("c.o", "C",
                                        "extern int b_get(void);\n"
                                        "int c_use(void) { return b_get() + 1; }\n"),
                         0, diags)
                  .ok())
      << diags.ToString();
  const Insn* call = FirstCall(image.functions[image.FindFunction("c_use")]);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->op, Op::kCallBound);
  EXPECT_EQ(call->a, slot);
  Machine machine(image);
  EXPECT_EQ(machine.Call("c_use").value, 8u);
}

TEST(LinkAppend, CallInsideTheSameComponentStaysDirect) {
  Image image = LinkAToSwappableB();
  const int b_get = image.FindFunction("b_get");
  Diagnostics diags;
  ASSERT_TRUE(LinkAppend(image,
                         InstanceObject("b2.o", "B",
                                        "extern int b_get(void);\n"
                                        "int b_next(void) { return b_get() + 2; }\n"
                                        "int b_last(void) { return b_next() + 3; }\n"),
                         0, diags)
                  .ok())
      << diags.ToString();
  // Into the image's B, and within the appended object: every call is direct.
  const Insn* into_image = FirstCall(image.functions[image.FindFunction("b_next")]);
  ASSERT_NE(into_image, nullptr);
  EXPECT_EQ(into_image->op, Op::kCall);
  EXPECT_EQ(into_image->a, b_get);
  for (const char* name : {"b_next", "b_last"}) {
    for (const Insn& insn : image.functions[image.FindFunction(name)].code) {
      EXPECT_NE(insn.op, Op::kCallBound) << name;
    }
  }
  Machine machine(image);
  EXPECT_EQ(machine.Call("b_last").value, 12u);
}

// An image whose code and data hold every kind of callable reference: direct
// native calls, a native ref and a function ref as code constants, a negative
// constant (the funcref bit without a ref), and native/function refs in data.
Image LinkNativeUser() {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", R"(
extern int host_fn(int);
int twice(int x) { return 2 * x; }
int (*g_native)(int) = host_fn;
int (*g_local)(int) = twice;
int call_direct(int x) { return host_fn(x); }
int call_stored(int x) { return g_native(x) + g_local(x); }
int call_taken(int x) { int (*f)(int) = host_fn; int (*g)(int) = twice; return f(x) + g(x); }
int minus_two(void) { return -2; }
)"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error, {"host_fn"});
  EXPECT_TRUE(linked.ok()) << error;
  return linked.take().image;
}

ObjectFile NativeCallingObject() {
  return CompileOrDie("n.o", "extern int host_fn(int);\n"
                             "int n1(void) { return host_fn(1); }\n"
                             "int n2(void) { return 2; }\n");
}

// Native ids sit above every function id, so an append renumbers nothing: the
// old code and the linked data stay byte-identical, and every old reference to
// the native still reaches it.
TEST(LinkAppend, AnAppendLeavesOldCodeAndDataByteIdentical) {
  Image image = LinkNativeUser();
  const Image original = image;
  const uint32_t native_slot = image.data_symbols.at("g_native");
  uint32_t native_ref = 0;
  for (int i = 0; i < 4; ++i) {
    native_ref |= static_cast<uint32_t>(image.data[native_slot - image.data_base + i]) << (8 * i);
  }
  ASSERT_EQ(native_ref, EncodeFuncRef(kNativeBase));

  Diagnostics diags;
  ASSERT_TRUE(LinkAppend(image, NativeCallingObject(), 0, diags).ok()) << diags.ToString();
  ASSERT_EQ(image.functions.size(), original.functions.size() + 2);
  for (size_t f = 0; f < original.functions.size(); ++f) {
    EXPECT_EQ(image.functions[f].code, original.functions[f].code) << image.functions[f].name;
  }
  EXPECT_EQ(image.data, original.data);
  const Insn* call = FirstCall(image.functions[image.FindFunction("n1")]);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->a, kNativeBase);  // the appended code names native 0 the same way

  Machine machine(image);
  machine.BindNative("host_fn", [](Machine&, std::span<const uint32_t> args) {
    return args[0] + 100;
  });
  EXPECT_EQ(machine.Call("call_direct", {5}).value, 105u);
  EXPECT_EQ(machine.Call("call_stored", {5}).value, 115u);
  EXPECT_EQ(machine.Call("call_taken", {5}).value, 115u);
  EXPECT_EQ(machine.Call("minus_two").value, static_cast<uint32_t>(-2));
  EXPECT_EQ(machine.Call("n1").value, 101u);
  EXPECT_EQ(machine.Call("n2").value, 2u);
}

TEST(LinkAppend, FailedAppendNamesBothEndsAndLeavesTheImageUntouched) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "int counter = 3;\n"
                                         "int f(void) { return counter; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Image image = linked.take().image;
  const size_t functions = image.functions.size();
  const int text_bytes = image.text_bytes;
  const std::map<std::string, int> function_symbols = image.function_symbols;
  const std::map<std::string, uint32_t> data_symbols = image.data_symbols;

  Diagnostics diags;
  EXPECT_FALSE(LinkAppend(image,
                          CompileOrDie("b.o", "extern int counter(void);\n"
                                              "int g(void) { return counter(); }\n"),
                          0x8000, diags)
                   .ok());
  EXPECT_NE(diags.ToString().find("'g' calls 'counter', which is data, not a function"),
            std::string::npos)
      << diags.ToString();
  diags.Clear();
  EXPECT_FALSE(LinkAppend(image,
                          CompileOrDie("c.o", "extern int nowhere(void);\n"
                                              "int g(void) { return nowhere(); }\n"),
                          0x8000, diags)
                   .ok());
  EXPECT_NE(diags.ToString().find("undefined reference to 'nowhere'"), std::string::npos)
      << diags.ToString();

  EXPECT_EQ(image.functions.size(), functions);
  EXPECT_EQ(image.text_bytes, text_bytes);
  EXPECT_EQ(image.function_symbols, function_symbols);
  EXPECT_EQ(image.data_symbols, data_symbols);
  EXPECT_TRUE(image.func_ref_data.empty());
}

TEST(LinkAppend, AppendedTextFollowsKTextAlignAndDataItsAddress) {
  std::vector<LinkItem> items;
  items.emplace_back(CompileOrDie("a.o", "int f(void) { return 1; }\n"));
  std::string error;
  Result<LinkResult> linked = TryLink(std::move(items), &error);
  ASSERT_TRUE(linked.ok()) << error;
  Image image = linked.take().image;
  const int old_count = static_cast<int>(image.functions.size());
  const int old_text = image.text_bytes;

  const uint32_t data_address = 0x20000;
  Diagnostics diags;
  Result<std::vector<uint8_t>> data =
      LinkAppend(image, CompileOrDie("b.o", R"(
int tiny(void) { return 2; }
int bigger(int x) { int y = x * 3; if (y > 7) { y = y - 7; } return y + tiny(); }
int (*g_fn)(int) = bigger;
int g_value = 5;
)"),
                 data_address, diags);
  ASSERT_TRUE(data.ok()) << diags.ToString();

  int cursor = old_text;
  for (size_t f = static_cast<size_t>(old_count); f < image.functions.size(); ++f) {
    EXPECT_EQ(image.functions[f].text_offset, cursor) << f;
    EXPECT_EQ(image.functions[f].text_offset % kTextAlign, 0) << f;
    cursor += RoundUp(image.functions[f].TextBytes(), kTextAlign);
  }
  EXPECT_EQ(image.text_bytes, cursor);
  EXPECT_GT(image.text_bytes, old_text);

  // Data symbols live at the caller's address; the function pointer in the
  // relocated blob names the appended function. It lives on the heap, not in
  // linked data, so Image::func_ref_data stays as it was.
  const uint32_t g_fn = image.data_symbols.at("g_fn");
  ASSERT_GE(g_fn, data_address);
  ASSERT_LE(g_fn - data_address + 4, data.value().size());
  uint32_t word = 0;
  for (int i = 0; i < 4; ++i) {
    word |= static_cast<uint32_t>(data.value()[g_fn - data_address + i]) << (8 * i);
  }
  EXPECT_EQ(word, EncodeFuncRef(image.FindFunction("bigger")));
  EXPECT_TRUE(image.func_ref_data.empty());
  EXPECT_GE(image.data_symbols.at("g_value"), data_address);
}

}  // namespace
}  // namespace knit
