/**
 * @file
 * Pure helpers behind the benchmark's end-to-end metrics: tail
 * percentiles that refuse to report on too few samples, per-request
 * TPOT, and SLO attainment over attempted requests.
 */

#ifndef AQUA_PERFBENCH_REPORT_HH
#define AQUA_PERFBENCH_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "workload/request.hh"

namespace aqua::perfbench {

/** A percentile together with the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    /** Samples the percentile was taken over. */
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
    /** Enough samples lie beyond the rank to report it. */
    bool reportable = false;
};

/**
 * Nearest-rank percentile @p q (in (0, 100]) of @p values. The result
 * is reportable only when at least @p minBeyond samples rank above
 * it, so a p95 needs 200 samples for ten to lie beyond it.
 */
Percentile tailPercentile(std::vector<double> values, double q,
                          std::size_t minBeyond = 10);

/** Served to completion: finished and not shed. */
bool served(const workload::RequestMetrics &m);

/**
 * Time per output token of a served request,
 * (finish - first token) / (tokens - 1); 0 for one-token replies.
 */
double tpotSec(const workload::RequestMetrics &m);

/** The responsiveness bar every workload is judged against. */
struct SloSpec
{
    double ttftSec = 2.0;
    double tpotSec = 0.25;
};

/**
 * Share of @p attempted requests that were served with TTFT and TPOT
 * within @p slo. Unfinished (finish == 0) and shed requests are
 * misses; the denominator is every attempted request.
 */
double sloAttainment(const std::vector<workload::RequestMetrics> &attempted,
                     const SloSpec &slo);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Shortest round-trip text of @p v as a JSON number. */
std::string jsonNumber(double v);

} // namespace aqua::perfbench

#endif // AQUA_PERFBENCH_REPORT_HH
