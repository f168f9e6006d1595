/**
 * @file
 * Replay-equals-live assertion for tests that attach a journal:
 *
 *   EXPECT_TRUE(replayEqualsLive(coordinator, journal));
 *
 * Rebuilds a fresh instance from the journal (snapshot plus pending
 * tail) and compares its exportState() with the live one's, via
 * recovery::replayDivergence. The live instance must also pass its
 * auditInvariants(), where it has one.
 */

#ifndef AQUA_TESTS_REPLAY_EQUALS_LIVE_HH
#define AQUA_TESTS_REPLAY_EQUALS_LIVE_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "recovery/replay_check.hh"

template <class Owner>
::testing::AssertionResult
replayEqualsLive(const Owner &live, const typename Owner::Journal &journal)
{
    std::vector<std::string> problems =
        aqua::recovery::replayDivergence(live, journal);
    if constexpr (requires { live.auditInvariants(); }) {
        for (const std::string &v : live.auditInvariants())
            problems.push_back("live: " + v);
    }
    if (problems.empty())
        return ::testing::AssertionSuccess();
    ::testing::AssertionResult failure = ::testing::AssertionFailure();
    for (const std::string &p : problems)
        failure << p << "\n";
    return failure;
}

#endif // AQUA_TESTS_REPLAY_EQUALS_LIVE_HH
