/**
 * @file
 * mindful-analyze: two-phase semantic analysis over the MINDFUL tree.
 *
 * Phase 1 (per TU, parallel): parse the pragmatic C++ subset the
 * project is written in — namespaces, classes, free and member
 * function definitions, local lambdas — into FunctionFacts:
 * the impurities a function commits (heap allocation, container
 * growth, string construction, locks, logging, by-name metric
 * lookups), the calls it makes, the RNG draws it performs and which
 * engines it derived via Rng::fork. Shard roots are the lambdas (or
 * named local functions) handed to exec::parallelFor/parallelReduce.
 *
 * Phase 2 (whole program, serial): link FunctionFacts into a project
 * symbol table and call graph, then run the semantic checks:
 *
 *  - hot-path: nothing reachable from a shard root may commit an
 *    impurity. Protects the pooled shard bodies (comm BER, ni
 *    cortex, core sweeps, serve batch) from silent perf/determinism
 *    regressions.
 *  - unit-algebra: expression-level unit discipline — unwrapped
 *    accessors of different dimensions/scales must not meet across
 *    +/-/comparison operators, and power-density comparisons must go
 *    through the thermal::safety API, never a bare 40.0 literal.
 *  - rng-flow: a shared Rng engine must not reach a shard body, even
 *    through helper functions; only Rng::fork(stream) sub-streams
 *    (or engines constructed inside the shard) may be drawn from.
 *  - atomics-discipline: every std::atomic field declares its
 *    publication protocol via MINDFUL_ATOMIC_ROLE (base/compiler.hh)
 *    and every load/store/RMW on it, across TUs, obeys the memory
 *    orders that role permits; unannotated fields, consume ordering,
 *    and seq_cst-by-omission are findings.
 *  - determinism-flow: unordered-container iteration, pointer-valued
 *    map/set keys, and wall-clock reads must not be reachable from a
 *    shard root — shard outputs are byte-identical by contract.
 *  - realtime-loop: loops marked MINDFUL_RT_LOOP("stage")
 *    (base/compiler.hh) are streaming stage roots; nothing reachable
 *    from one may block — Mutex/ConditionVariable, file/stream
 *    construction, sleep/this_thread calls, unbounded `while (true)`
 *    without a break/return, or cold-tier TraceSpan / by-name metric
 *    lookups (MINDFUL_HOT_SPAN sites and held `Counter &` references
 *    stay legal).
 *  - view-invalidation: spans/string_views/rowData/raw data pointers
 *    borrowed from growable containers must not outlive a
 *    push_back/resize/reserve/move of their source — checked within
 *    a function by token order, and across TUs when the source is
 *    passed by mutable reference to a callee that grows it.
 *
 * Escape hatches mirror `lint: raw-ok`: an `analyze:` comment naming
 * one of hot-ok / unit-ok / rng-ok / atomic-ok / determinism-ok /
 * rt-ok / view-ok with a parenthesized reason, on the finding line,
 * the line above, or the root line (hot-ok / rng-ok / determinism-ok /
 * rt-ok). Empty reasons and stale markers are findings.
 *
 * Name resolution is deliberately conservative: a callee resolves to
 * same-file candidates first, then to a unique defining file; names
 * defined in several files (overload sets we cannot type-check) are
 * treated as opaque — assumed pure — so every reported path is real.
 */

#ifndef MINDFUL_TOOLS_LINT_ANALYZE_HH
#define MINDFUL_TOOLS_LINT_ANALYZE_HH

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "lint.hh"

namespace mindful::lint {

/** One unsafe-on-a-hot-path act committed directly by a function. */
struct Impurity
{
    /** "alloc", "grow", "string", "lock", "log" or "metric-lookup". */
    std::string kind;
    std::size_t line = 0;
    std::string detail; //!< human phrasing, e.g. "constructs std::vector"
};

/** One call site: unqualified callee plus single-identifier args. */
struct CallSite
{
    std::string callee;
    std::size_t line = 0;
    /** Top-level args; single identifiers verbatim, "" otherwise. */
    std::vector<std::string> argIdents;
    /** Token index within the body (orders calls vs view lifetimes). */
    std::size_t pos = 0;
};

/** One RNG draw (`engine.gaussian()` and friends). */
struct DrawSite
{
    std::string engine; //!< identifier drawn from ("" when unknown)
    std::string method;
    std::size_t line = 0;
};

struct ParamFacts
{
    std::string name;
    bool isRng = false; //!< declared type mentions Rng
    /** Non-const reference or pointer: the callee may mutate it. */
    bool mutableRef = false;
};

/**
 * One nondeterminism source committed directly by a function, reported
 * when reachable from a shard root (determinism-flow).
 */
struct Hazard
{
    /** "wall-clock", "unordered-iter" or "pointer-key". */
    std::string kind;
    std::size_t line = 0;
    std::string detail; //!< human phrasing, e.g. "reads steady_clock"
};

/**
 * One view borrowed from a growable container: std::span /
 * std::string_view construction, Tensor::rowData, or .data() bound to
 * a raw pointer. Token positions order the binding against later
 * growth of the source and later uses of the view.
 */
struct ViewSite
{
    std::string view;   //!< view variable name
    std::string source; //!< container identifier the view borrows from
    std::string how;    //!< "span", "string_view", "rowData", "data"
    std::size_t line = 0;
    std::size_t pos = 0;         //!< token index of the binding
    std::size_t lastUsePos = 0;  //!< last mention of the view after pos
    std::size_t lastUseLine = 0; //!< line of that last mention
};

/** One growth/invalidation op committed directly on a container. */
struct GrowSite
{
    std::string container;
    std::string method; //!< "push_back", "resize", "reserve", "move", ...
    std::size_t line = 0;
    std::size_t pos = 0; //!< token index of the operation
};

/** Everything phase 2 needs to know about one function body. */
struct FunctionFacts
{
    std::string name; //!< unqualified ("forward", not "Network::forward")
    std::size_t line = 0;

    /** Lambda handed directly to parallelFor/parallelReduce. */
    bool shardRoot = false;
    std::string rootLabel; //!< "parallelFor" / "parallelReduce"
    std::size_t rootLine = 0;

    /** Loop carved out of a MINDFUL_RT_LOOP("stage") marker. */
    bool rtRoot = false;

    std::vector<ParamFacts> params;
    std::vector<Impurity> impurities;
    std::vector<CallSite> calls;
    std::vector<DrawSite> draws;
    std::vector<Hazard> hazards;

    /**
     * Blocking acts committed directly by this function, reported when
     * reachable from an RT root (realtime-loop). Reuses Impurity with
     * kinds "blocking-call", "unbounded-loop" and "cold-tier".
     */
    std::vector<Impurity> rtBlockers;

    /** Views borrowed from growable containers (view-invalidation). */
    std::vector<ViewSite> views;

    /** Direct growth ops on containers (view-invalidation). */
    std::vector<GrowSite> grows;

    /** Engines safe to draw from: Rng::fork-derived or local. */
    std::vector<std::string> safeEngines;
};

/** A function *name* passed to parallelFor (`run_attempt` style). */
struct RootRef
{
    std::string name;
    std::size_t line = 0;
    std::string label; //!< "parallelFor" / "parallelReduce"
};

/** One std::atomic field declaration and its (possibly absent) role. */
struct AtomicDecl
{
    std::string name; //!< field/variable identifier ("" = dangling role)
    std::string role; //!< MINDFUL_ATOMIC_ROLE argument ("" = unannotated)
    std::size_t line = 0;
};

/** One operation on an atomic field (load/store/RMW/CAS). */
struct AtomicOp
{
    std::string field; //!< receiver identifier
    std::string op;    //!< "load", "store", "fetch_add", ...
    std::size_t line = 0;
    /** memory_order_* names in the argument list, in source order. */
    std::vector<std::string> orders;
    /** Inside an if/while/for/switch condition (control-flow use). */
    bool inCondition = false;
    /** Result dereferenced (`->` chain or `delete` of the load). */
    bool dereferenced = false;
};

/** Phase-1 output for one TU. */
struct FileFacts
{
    std::string path;
    std::vector<FunctionFacts> functions;
    std::vector<RootRef> rootRefs;
    std::vector<AtomicDecl> atomicDecls;
    std::vector<AtomicOp> atomicOps;

    /** unit-algebra findings (suppressions NOT yet applied). */
    std::vector<Finding> expression;

    /** The per-file lexical checks (allowlist NOT yet applied). */
    std::vector<Finding> lexical;

    /** `analyze: <tag>(<reason>)` markers, copied from SourceFile. */
    std::map<std::string, std::map<std::size_t, std::string>> analyzeOk;
};

/** Phase 1: parse one lexed TU (also runs the lexical checks). */
FileFacts analyzeFile(const SourceFile &source);

/**
 * Phase 2 plus suppression accounting: cross-TU checks over every
 * TU's facts, `analyze:` escape hatches applied, empty-reason and
 * stale markers reported. Deterministic for a given @p files order.
 */
std::vector<Finding> semanticFindings(const std::vector<FileFacts> &files);

/**
 * One source tree to scan. Findings in it are recorded as
 * `<label>/<relative path>` (or bare relative path when the label is
 * empty, as for an absolute root).
 */
struct RootSpec
{
    std::string dir;   //!< directory to walk
    std::string label; //!< path prefix in findings ("" = none)
};

/** Options for the full driver (defaults match the ctest entry). */
struct AnalyzeOptions
{
    /** Scan roots in scan order; findings merge into one report. */
    std::vector<RootSpec> roots;
    std::string allowlistPath; //!< unit-safety allowlist ("" = none)
    std::string sarifPath;     //!< SARIF 2.1.0 output ("" = none)
    unsigned threads = 0;      //!< worker threads (0 = pool default)
};

/**
 * The mindful-analyze driver: collect sources, parse (sharded over
 * the mindful_exec pool), link, check, print findings to @p out
 * sorted by (file, line, check), optionally emit SARIF. Output is
 * byte-identical across thread counts.
 *
 * @return 0 clean, 1 findings, 2 driver error (unreadable root, ...).
 */
int runAnalyze(const AnalyzeOptions &options, std::ostream &out,
               std::ostream &err);

} // namespace mindful::lint

#endif // MINDFUL_TOOLS_LINT_ANALYZE_HH
