/**
 * @file
 * aqua_sim — run any AQUA experiment from a JSON spec.
 *
 * Usage:
 *   aqua_sim <spec.json>        run the spec in a file
 *   aqua_sim -                  read the spec from stdin
 *   aqua_sim --inline '<json>'  run an inline spec
 *   aqua_sim --help             show spec examples
 *
 * The result is printed as pretty JSON on stdout; errors go to
 * stderr with exit code 1.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "exp/config.hh"

namespace {

void
usage()
{
    std::printf(
        "aqua_sim — run an AQUA experiment from a JSON spec\n\n"
        "usage: aqua_sim <spec.json> | aqua_sim - | "
        "aqua_sim --inline '<json>'\n\n"
        "examples:\n"
        "  {\"experiment\": \"cfs\", \"mode\": \"aqua\", "
        "\"rate_per_sec\": 5, \"num_requests\": 100}\n"
        "  {\"experiment\": \"long_prompt\", \"mode\": \"dram\", "
        "\"duration_s\": 600}\n"
        "  {\"experiment\": \"lora\", \"mode\": \"aqua\", "
        "\"num_adapters\": 30, \"rate_per_sec\": 2}\n"
        "  {\"experiment\": \"elastic\", \"with_aqua\": true}\n"
        "  {\"experiment\": \"chatbot\", \"mode\": \"vllm+cfs\", "
        "\"users\": 25, \"turns\": 4}\n"
        "  {\"experiment\": \"contention\", \"model\": "
        "\"Llama-2-13B\", \"batch_sizes\": [1, 8, 32, 64]}\n"
        "  {\"experiment\": \"placement\", \"servers\": 8, "
        "\"gpus_per_server\": 2, \"split\": \"balanced\", "
        "\"max_nodes\": 20000}\n"
        "  {\"experiment\": \"e2e\", \"split\": \"balanced\", "
        "\"servers\": 8, \"duration_s\": 300}\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string arg1 = argv[1];
    std::string text;
    if (arg1 == "--help" || arg1 == "-h") {
        usage();
        return 0;
    }
    if (arg1 == "--inline") {
        if (argc < 3) {
            std::fprintf(stderr, "aqua_sim: --inline needs a JSON "
                                 "argument\n");
            return 1;
        }
        text = argv[2];
    } else if (arg1 == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        text = buffer.str();
    } else {
        std::ifstream file(arg1);
        if (!file) {
            std::fprintf(stderr, "aqua_sim: cannot open %s\n",
                         arg1.c_str());
            return 1;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        text = buffer.str();
    }

    aqua::exp::ConfigRunResult result =
        aqua::exp::runFromJsonText(text);
    if (!result.ok) {
        std::fprintf(stderr, "aqua_sim: %s\n", result.error.c_str());
        return 1;
    }
    std::printf("%s\n", result.results.dump(2).c_str());
    return 0;
}
