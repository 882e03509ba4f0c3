/**
 * @file
 * Functional, cycle-approximate DNN-accelerator simulator.
 *
 * The lower-bound solver (Eqs. 11-15) sizes a PE array analytically;
 * this simulator *executes* a network on that array and reports the
 * cycles, latency, energy and utilization the analytical model
 * predicts. Every layer takes one path: it computes through its own
 * Layer::forward() and is timed from its MAC census, ceil(#MAC_op /
 * units) passes of MAC_seq steps on the weight-stationary PE pool of
 * Fig. 9 (MacCensus::steps). MAC-free layers (pooling, activations,
 * reshapes) execute in the dataflow FSM and take no PE cycles.
 *
 * The simulated output is therefore bit-identical to
 * Network::forward().
 */

#ifndef MINDFUL_ACCEL_SIMULATOR_HH
#define MINDFUL_ACCEL_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "accel/mac_unit.hh"
#include "base/units.hh"
#include "dnn/network.hh"

namespace mindful::accel {

/** Static configuration of the simulated accelerator. */
struct SimulatorConfig
{
    /** PE count (shared pool across layers). */
    std::uint64_t macUnits = 64;

    /** Synthesized MAC characteristics. */
    MacUnitParams mac = nangate45();
};

/** Dynamic results of one simulated inference. */
struct SimulationResult
{
    dnn::Tensor output;

    /** Total PE time-steps (MAC cycles) consumed. */
    std::uint64_t cycles = 0;

    /** cycles * t_MAC. */
    Time latency;

    /** MAC operations actually executed. */
    std::uint64_t macsExecuted = 0;

    /** Energy actually spent in MACs. */
    Energy energy;

    /** macsExecuted / (cycles * macUnits): PE array utilization. */
    double utilization = 0.0;

    /** Per-layer cycle counts. */
    std::vector<std::uint64_t> layerCycles;

    /**
     * Measured host nanoseconds per layer, from the same run() as
     * layerCycles: one clock read per layer boundary, so each entry
     * covers that layer's census, forward pass and bookkeeping, and
     * the entries sum to the span of the layer loop.
     */
    std::vector<std::uint64_t> layerHostNanos;
};

/** Results of streaming a batch through a pipelined accelerator. */
struct PipelinedResult
{
    /** Per-input network outputs, in order. */
    std::vector<dnn::Tensor> outputs;

    /** Per-stage (layer) latency with its allocated units. */
    std::vector<Time> stageLatency;

    /** Steady-state initiation interval = max stage latency. */
    Time iterationInterval;

    /** Pipeline fill + (N-1) intervals: time to drain the batch. */
    Time makespan;

    std::uint64_t macsExecuted = 0;
    Energy energy;
};

/** Weight-stationary shared-pool accelerator simulator. */
class AcceleratorSimulator
{
  public:
    explicit AcceleratorSimulator(SimulatorConfig config);

    const SimulatorConfig &config() const { return _config; }

    /** Run one inference of @p network on @p input. */
    SimulationResult run(const dnn::Network &network,
                         const dnn::Tensor &input) const;

    /**
     * Stream a batch through a *pipelined* accelerator (Eqs. 14-15):
     * layer i owns @p per_layer_units[i] PEs and all layers run
     * concurrently on successive inputs. Every MAC-bearing layer
     * needs a non-zero allocation (as produced by
     * LowerBoundSolver::solvePipelined). The configured shared-pool
     * size is ignored on this path.
     */
    PipelinedResult
    runPipelined(const dnn::Network &network,
                 const std::vector<dnn::Tensor> &inputs,
                 const std::vector<std::uint64_t> &per_layer_units) const;

  private:
    SimulatorConfig _config;
};

} // namespace mindful::accel

#endif // MINDFUL_ACCEL_SIMULATOR_HH
