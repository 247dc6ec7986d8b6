// The long straight-line function the scaling and golden tests compile: one
// function of n lines `int v_i = v_{i-1} + v_{i-1};` in a one-unit program.
#ifndef TESTS_LONG_FUNCTION_H_
#define TESTS_LONG_FUNCTION_H_

#include <string>

namespace knit {

inline constexpr const char* kLongKnit =
    "bundletype Main = { run }\n"
    "unit Long = { exports [ main : Main ]; files { \"long.c\" }; }\n";

inline std::string LongFunction(int n) {
  std::string source = "int run(int v_0) {\n";
  for (int i = 1; i <= n; ++i) {
    std::string prev = "v_" + std::to_string(i - 1);
    source += "  int v_" + std::to_string(i) + " = " + prev + " + " + prev + ";\n";
  }
  return source + "  return v_" + std::to_string(n) + ";\n}\n";
}

}  // namespace knit

#endif  // TESTS_LONG_FUNCTION_H_
