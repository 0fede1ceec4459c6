#ifndef BOWSIM_TESTS_TEST_SEEDS_HPP
#define BOWSIM_TESTS_TEST_SEEDS_HPP

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace bowsim {

/**
 * Seeds for randomized tests. BOWSIM_TEST_SEED (a single seed or a
 * comma-separated list) overrides the default 1..32 range, so a seed
 * printed by a failing run can be replayed in isolation:
 *
 *     BOWSIM_TEST_SEED=17 ./tests/bowsim_tests \
 *         --gtest_filter='Seeds/RandomPrograms.*'
 */
inline std::vector<std::uint32_t>
testSeeds()
{
    std::vector<std::uint32_t> seeds;
    if (const char *env = std::getenv("BOWSIM_TEST_SEED")) {
        std::stringstream ss(env);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) {
                seeds.push_back(static_cast<std::uint32_t>(
                    std::strtoul(tok.c_str(), nullptr, 10)));
            }
        }
    }
    if (seeds.empty()) {
        for (std::uint32_t s = 1; s < 33; ++s)
            seeds.push_back(s);
    }
    return seeds;
}

}  // namespace bowsim

#endif  // BOWSIM_TESTS_TEST_SEEDS_HPP
