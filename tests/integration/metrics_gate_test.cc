/**
 * @file
 * Runtime metric gate, end to end: with the global registry disabled,
 * the sharded kernels (GEMM, QAM/OOK BER), the red-black SOR
 * solve and the query engine record no counter at all; re-enabled,
 * the same calls add their per-call totals.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comm/channel_sim.hh"
#include "dnn/gemm.hh"
#include "obs/metrics.hh"
#include "serve/query_engine.hh"
#include "thermal/bioheat.hh"

namespace mindful {
namespace {

/** Every counter of the global registry except the pool's own stats. */
std::map<std::string, std::uint64_t>
counterValues()
{
    std::map<std::string, std::uint64_t> values;
    for (const obs::MetricSample &sample :
         obs::MetricRegistry::global().snapshot()) {
        if (sample.type == "counter" &&
            sample.name.rfind("exec.pool.", 0) != 0)
            values[sample.name] = sample.count;
    }
    return values;
}

/**
 * One call through each kernel's sharded path, then one query and a
 * batch of two through @p engine (a miss, then hits for a fresh
 * @p channels).
 */
void
runShardedSites(serve::QueryEngine &engine, std::uint64_t channels)
{
    // 64 x 32 x 64 = 2^17 MACs clears biasGemm's 2^16-MAC sharding
    // threshold (dnn/gemm.cc), and n = 32 is two 16-column tiles, so
    // the call shards two ways. C starts as a zero bias.
    const std::size_t m = 64, n = 32, k = 64;
    std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
    dnn::gemm::biasGemm(m, n, k, a.data(), b.data(), c.data());

    // The red-black SOR sweep is serial; its solve counters still
    // sit behind the gate.
    thermal::BioHeatConfig fine;
    fine.gridSpacing = Length::millimetres(0.15);
    thermal::BioHeatSolver({}, fine).solve(Power::milliwatts(10.0),
                                           Area::squareMillimetres(16.0));

    comm::AwgnChannelSimulator(2).measureBer(4.0, 4096);
    comm::OokChannelSimulator().measureBer(4.0, 4096);

    serve::DesignQuery query;
    query.socId = 1;
    query.channels = channels;
    engine.evaluate(query);
    engine.evaluateBatch({query, query});
}

TEST(MetricsGateTest, DisabledRegistryRecordsNoKernelOrServeCounter)
{
    auto &registry = obs::MetricRegistry::global();
    serve::QueryEngine engine;

    const auto before = counterValues();
    registry.setEnabled(false);
    runShardedSites(engine, 1024);
    const auto disabled = counterValues();
    registry.setEnabled(true);
    EXPECT_EQ(disabled, before);

    // The same calls, enabled, reach every site the gate covered.
    runShardedSites(engine, 512);
    auto enabled = counterValues();
    auto added = [&](const std::string &name) {
        const auto was = before.find(name);
        return enabled[name] - (was == before.end() ? 0 : was->second);
    };
    EXPECT_EQ(added("dnn.gemm.macs"), 1u << 17);
    EXPECT_GT(added("thermal.sor.sweeps"), 0u);
    EXPECT_EQ(added("comm.qam.shard_symbols"), 4096u);
    EXPECT_EQ(added("comm.ook.shard_bits"), 4096u);
    EXPECT_EQ(added("serve.queries"), 3u);
    EXPECT_EQ(added("serve.cache.misses"), 1u);
    EXPECT_EQ(added("serve.cache.hits"), 2u);
}

} // namespace
} // namespace mindful
