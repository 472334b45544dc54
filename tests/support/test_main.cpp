// Custom gtest main: gtest flags first, then KAR test flags via
// common::Flags — currently `--seed=N`, the global override for every
// randomized test (see support/testsupport.hpp). The KAR_SEED environment
// variable is the equivalent for runs driven through ctest. Any other
// non-gtest flag, or a seed that is not a number, exits 2.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "common/flags.hpp"
#include "support/testsupport.hpp"

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest's own flags

  std::optional<std::uint64_t> seed;
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  if (flags.has("seed")) {
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  } else if (const char* env = std::getenv("KAR_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  if (kar::common::report_unread(flags, argv[0])) return 2;
  kar::testsupport::internal::set_seed_override(seed);
  kar::testsupport::internal::install_seed_reporter();
  return RUN_ALL_TESTS();
}
