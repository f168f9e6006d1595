/**
 * @file
 * Tests for the JSON experiment-spec runner behind the aqua_sim CLI.
 */

#include <gtest/gtest.h>

#include "exp/config.hh"

using namespace aqua;
using namespace aqua::exp;

TEST(Config, RejectsNonObjectsAndUnknownExperiments)
{
    EXPECT_FALSE(runFromJsonText("42").ok);
    EXPECT_FALSE(runFromJsonText("{}").ok);
    ConfigRunResult r =
        runFromJsonText(R"({"experiment": "nope"})");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown experiment"), std::string::npos);
}

TEST(Config, ReportsParseErrorsWithPosition)
{
    ConfigRunResult r = runFromJsonText("{broken");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("parse error"), std::string::npos);
    EXPECT_NE(r.error.find("1:"), std::string::npos);
}

TEST(Config, LongPromptSpecRuns)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "long_prompt", "mode": "aqua",)"
        R"( "duration_s": 60})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.results.getInt("total_tokens", 0), 100);
    const json::Value *per = r.results.find("tokens_per_consumer");
    ASSERT_TRUE(per && per->isArray());
    EXPECT_EQ(per->asArray().size(), 1u);
}

TEST(Config, LongPromptValidatesFields)
{
    EXPECT_FALSE(runFromJsonText(
                     R"({"experiment": "long_prompt",)"
                     R"( "mode": "warp"})")
                     .ok);
    EXPECT_FALSE(runFromJsonText(
                     R"({"experiment": "long_prompt",)"
                     R"( "producer": "GPT-9"})")
                     .ok);
    EXPECT_FALSE(runFromJsonText(
                     R"({"experiment": "long_prompt",)"
                     R"( "pairs": 100})")
                     .ok);
}

TEST(Config, CfsSpecReturnsSummaries)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "cfs", "mode": "vllm",)"
        R"( "rate_per_sec": 4, "num_requests": 20})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.results.getInt("finished", 0), 20);
    EXPECT_GT(r.results.getDouble("rct_p50_s", 0.0), 0.0);
    const json::Value *reqs = r.results.find("requests");
    ASSERT_TRUE(reqs && reqs->isArray());
    EXPECT_EQ(reqs->asArray().size(), 20u);
}

TEST(Config, CfsValidatesModels)
{
    EXPECT_FALSE(runFromJsonText(
                     R"({"experiment": "cfs",)"
                     R"( "consumer": "Nonsense-1B"})")
                     .ok);
}

TEST(Config, LoraSpecCountsCache)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "lora", "mode": "dram",)"
        R"( "num_requests": 30, "rate_per_sec": 2})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.results.getInt("finished", 0), 30);
    EXPECT_GT(r.results.getInt("cache_misses", 0), 0);
}

TEST(Config, ContentionSpecSweeps)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "contention", "model": "AudioGen",)"
        R"( "batch_sizes": [1, 8]})");
    ASSERT_TRUE(r.ok) << r.error;
    const json::Value *points = r.results.find("points");
    ASSERT_TRUE(points && points->isArray());
    ASSERT_EQ(points->asArray().size(), 2u);
    EXPECT_GT(points->asArray()[1].getDouble("throughput", 0.0),
              points->asArray()[0].getDouble("throughput", 0.0));
    EXPECT_FALSE(runFromJsonText(
                     R"({"experiment": "contention",)"
                     R"( "batch_sizes": [0]})")
                     .ok);
}

TEST(Config, PlacementSpecWithSplit)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "placement", "servers": 4,)"
        R"( "gpus_per_server": 2, "split": "llm-heavy",)"
        R"( "max_nodes": 2000})");
    ASSERT_TRUE(r.ok) << r.error;
    const json::Value *assignment = r.results.find("assignment");
    ASSERT_TRUE(assignment && assignment->isArray());
    EXPECT_EQ(assignment->asArray().size(), 8u);
    EXPECT_GT(r.results.find("pairs")->asArray().size(), 0u);
}

TEST(Config, PlacementSpecWithExplicitModels)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "placement", "servers": 1,)"
        R"( "gpus_per_server": 2, "models": [)"
        R"(  {"name": "prod", "mem_bytes": 60000000000},)"
        R"(  {"name": "cons", "mem_bytes": -10000000000}]})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.results.find("pairs")->asArray().size(), 1u);
}

TEST(Config, PlacementRejectsInfeasible)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "placement", "servers": 1,)"
        R"( "gpus_per_server": 1, "split": "balanced"})");
    ASSERT_TRUE(r.ok); // 1 model on 1 GPU is fine
    r = runFromJsonText(
        R"({"experiment": "placement", "servers": 1,)"
        R"( "gpus_per_server": 1, "models": [)"
        R"(  {"name": "a", "mem_bytes": 1},)"
        R"(  {"name": "b", "mem_bytes": 1}]})");
    EXPECT_FALSE(r.ok);
}

TEST(Config, ChatbotSpecRuns)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "chatbot", "mode": "aqua",)"
        R"( "users": 5, "turns": 2})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.results.getInt("finished", 0), 10);
}

TEST(Config, ElasticSpecProducesTimelines)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "elastic", "duration_s": 300})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.results.find("producer_free_memory")
                  ->asArray().size(),
              10u);
    EXPECT_GT(r.results.getInt("consumer_tokens", 0), 0);
}

TEST(Config, EndToEndSpecRuns)
{
    ConfigRunResult r = runFromJsonText(
        R"({"experiment": "e2e", "split": "llm-heavy",)"
        R"( "servers": 2, "duration_s": 60})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.results.getInt("long_prompt_tokens", 0), 0);
    EXPECT_GT(r.results.getInt("paired_consumers", 0), 0);
    EXPECT_FALSE(runFromJsonText(
                     R"({"experiment": "e2e", "split": "x"})")
                     .ok);
}
