/**
 * @file
 * The bwsim command-line driver: one binary dispatching to every
 * registered paper experiment by name.
 *
 *   bwsim fig7 fig8 --benches=bfs,spmv --threads=8 --shrink=4
 *   bwsim fig10 fig12 --cache-dir=.bwsim-cache --jobs=4
 *   bwsim fig4 --benches=bfs --format=json
 *   bwsim --dump-stats --benches=bfs --config=P-DRAM --shrink=16
 *   bwsim --list
 *
 * Running several experiments in one invocation shares simulations
 * through the SimCache, so the baseline runs feeding figs. 1/4/5/7/8/9
 * happen once, not once per figure. With --cache-dir they are also
 * shared across invocations (persistent on-disk tier). --jobs=N forks
 * up to N children per simulation batch (ForkBackend), and the tables
 * are byte-identical to a single-process run.
 */

#ifndef BWSIM_CLI_CLI_HH
#define BWSIM_CLI_CLI_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiments.hh"

namespace bwsim::cli
{

/** One runnable experiment: a figure, table or study of the paper. */
struct Experiment
{
    std::string name;  ///< registry key, e.g. "fig7"
    std::string title; ///< one-line description for --list
    std::function<void(const exp::ExperimentOptions &, std::ostream &)>
        run;
};

/** Every experiment, in paper order. */
const std::vector<Experiment> &experimentRegistry();

/** Lookup by name; null when unknown. */
const Experiment *findExperiment(const std::string &name);

/** Full argv-driven entry point behind main(). */
int cliMain(int argc, const char *const *argv, std::ostream &out,
            std::ostream &err);

} // namespace bwsim::cli

#endif // BWSIM_CLI_CLI_HH
