/**
 * @file
 * mindful-analyze CLI. Usage:
 *
 *   mindful-analyze --root src [--root tools --root bench ...]
 *       [--allowlist tools/lint/allowlist.txt]
 *       [--sarif out.sarif] [--threads N]
 *
 * `--root` repeats. Finding paths are prefixed with each relative
 * root's own cleaned name ("src/...", "tools/..."), so a run from the
 * repository top level reports repo-relative paths whether one root
 * or several are given. An absolute root has no natural prefix and
 * reports root-relative paths.
 *
 * Every run parses every file, links, and runs the lexical and
 * semantic checks. Exits 0 when the tree is clean, 1 when any finding
 * survives, 2 on a driver error. Findings print as
 * `file:line: [check] message` and are byte-identical across thread
 * counts.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "analyze.hh"
#include "base/parse.hh"

namespace {

const char *kUsage =
    "usage: mindful-analyze --root <dir> [--root <dir> ...]\n"
    "           [--allowlist <file>] [--sarif <file>] [--threads <n>]\n";

/** Finding-path prefix for one --root argument ("" = no prefix). */
std::string
rootLabel(const std::string &dir)
{
    std::string label = dir;
    while (label.rfind("./", 0) == 0)
        label.erase(0, 2);
    while (!label.empty() && label.back() == '/')
        label.pop_back();
    if (!label.empty() && label.front() == '/')
        label.clear(); // absolute path: no natural prefix
    return label;
}

} // namespace

int
main(int argc, char **argv)
{
    mindful::lint::AnalyzeOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            const std::string dir = argv[++i];
            options.roots.push_back({dir, rootLabel(dir)});
        } else if (arg == "--allowlist" && i + 1 < argc) {
            options.allowlistPath = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            options.sarifPath = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            std::optional<unsigned> value =
                mindful::parseThreadCount(argv[++i]);
            if (!value || *value == 0 || *value > 256) {
                std::cerr << "mindful-analyze: --threads expects a "
                             "count in [1, 256]\n";
                return 2;
            }
            options.threads = *value;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else {
            std::cerr << "mindful-analyze: unknown argument '" << arg
                      << "'\n"
                      << kUsage;
            return 2;
        }
    }
    if (options.roots.empty()) {
        std::cerr << "mindful-analyze: --root is required\n" << kUsage;
        return 2;
    }
    return mindful::lint::runAnalyze(options, std::cout, std::cerr);
}
