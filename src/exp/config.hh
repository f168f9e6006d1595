/**
 * @file
 * JSON-driven experiment configuration: parse an experiment spec,
 * dispatch to the matching runner, and return results as JSON.
 *
 * This is the programmatic surface behind the `aqua_sim` CLI tool:
 *
 *   { "experiment": "cfs", "mode": "aqua", "rate_per_sec": 5,
 *     "num_requests": 100, "consumer": "Codellama-34B",
 *     "producer": "Kandinsky", "seed": 1 }
 *
 * Supported experiments: "cfs", "long_prompt", "lora", "elastic",
 * "chatbot", "contention", "placement".
 *
 * "placement" bounds its branch and bound by "max_nodes" (default
 * 20000) and reports "nodes" and "lp_iterations"; it has no
 * wall-clock limit, so its output is the same on any host.
 */

#ifndef AQUA_EXP_CONFIG_HH
#define AQUA_EXP_CONFIG_HH

#include <string>

#include "json/json.hh"

namespace aqua::exp {

/** Outcome of running a JSON-described experiment. */
struct ConfigRunResult
{
    bool ok = false;
    /** Error description when !ok. */
    std::string error;
    /** Results payload when ok. */
    json::Value results;
};

/**
 * Run the experiment described by @p spec.
 *
 * Unknown experiment names and malformed fields yield ok=false with
 * a diagnostic instead of panicking, so the CLI can report cleanly.
 */
ConfigRunResult runFromJson(const json::Value &spec);

/** Convenience: parse then run; parse errors land in .error. */
ConfigRunResult runFromJsonText(const std::string &text);

} // namespace aqua::exp

#endif // AQUA_EXP_CONFIG_HH
