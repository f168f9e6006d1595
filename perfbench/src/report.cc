#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace aqua::perfbench {

Percentile
tailPercentile(std::vector<double> values, double q, std::size_t minBeyond)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest sample with at least q% of the
    // samples at or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    p.reportable = p.beyond >= minBeyond;
    return p;
}

bool
served(const workload::RequestMetrics &m)
{
    return m.finished() && !m.shed;
}

double
tpotSec(const workload::RequestMetrics &m)
{
    if (!served(m) || m.tokensGenerated < 2)
        return 0.0;
    return aqua::sim::ticksToSec(m.finish - m.firstToken) /
           static_cast<double>(m.tokensGenerated - 1);
}

double
sloAttainment(const std::vector<workload::RequestMetrics> &attempted,
              const SloSpec &slo)
{
    if (attempted.empty())
        return 0.0;
    std::size_t met = 0;
    for (const workload::RequestMetrics &m : attempted) {
        if (served(m) && m.ttftSec() <= slo.ttftSec &&
            tpotSec(m) <= slo.tpotSec)
            ++met;
    }
    return static_cast<double>(met) /
           static_cast<double>(attempted.size());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace aqua::perfbench
