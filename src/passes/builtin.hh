/**
 * @file
 * Built-in passes wrapping each of the repo's circuit
 * transformations, so strategy pipelines (and user pipelines) are
 * assembled from uniform Pass objects instead of hardcoded calls.
 *
 * Every pass documents the stage it expects; see docs/passes.md for
 * the full contract and a worked custom-pass example.  Analysis
 * results flow between passes through the PassContext property map
 * under the `k*Key` keys declared here.
 */

#ifndef CASQ_PASSES_BUILTIN_HH
#define CASQ_PASSES_BUILTIN_HH

#include <memory>
#include <optional>

#include "circuit/unitary.hh"
#include "passes/ca_dd.hh"
#include "passes/ca_ec.hh"
#include "passes/pass.hh"
#include "passes/twirling.hh"

namespace casq {

/** Property: number of twirl gates inserted (std::size_t). */
inline constexpr const char kTwirlGatesKey[] = "twirl.gates";

/** Property: twirl blueprint for the late-twirl pass (TwirlPlan). */
inline constexpr const char kTwirlPlanKey[] = "twirl.plan";

/**
 * Property: pre-lowering twirl frames the late-twirl pass sampled
 * (TwirlFrames), published for the scheduled CA-EC walk.
 */
inline constexpr const char kTwirlFramesKey[] = "twirl.frames";

/** Property: CA-EC bookkeeping (CaecStats). */
inline constexpr const char kCaecStatsKey[] = "caec.stats";

/**
 * Property: blueprint for the scheduled CA-EC walk
 * (std::shared_ptr<const CaecPlan>).
 */
inline constexpr const char kCaecPlanKey[] = "caec.plan";

/** Property: idle windows found (std::vector<IdleWindow>). */
inline constexpr const char kIdleWindowsKey[] = "idle.windows";

/** Property: DD pulses inserted (std::size_t). */
inline constexpr const char kDdPulsesKey[] = "dd.pulses";

/**
 * Analysis-only pass (Layered stage, deterministic): publish the
 * twirl blueprint under kTwirlPlanKey and pre-build the conjugation
 * table of every targeted two-qubit gate into the pipeline's shared
 * ConjugationTable.  Running in the deterministic prefix of an
 * ensemble pipeline, it moves both the blueprint capture and the
 * numeric table construction out of the per-instance suffix.
 */
class TwirlPlanPass : public Pass
{
  public:
    explicit TwirlPlanPass(std::shared_ptr<ConjugationTable> tables)
        : _tables(std::move(tables))
    {
    }

    std::string name() const override { return "twirl-plan"; }
    void run(PassContext &context) override;

  private:
    std::shared_ptr<ConjugationTable> _tables;
};

/**
 * Insert the Pauli-twirl frames into the lowered circuit (Flat
 * stage, after flatten and any transpile) from the blueprint a
 * TwirlPlanPass published (see insertTwirlFrames() in twirling.hh).
 * Because everything before this pass is deterministic, ensemble
 * compilation shares the flatten/transpile prefix across all
 * instances instead of recompiling it per twirl.  The conjugation
 * tables come from the pipeline's shared ConjugationTable, which the
 * twirl-plan pass warms once per ensemble.
 *
 * Construct with the pipeline's TranspileOptions when the pipeline
 * lowers to the native gate set, so the frame gates receive the
 * same lowering as the rest of the stream.
 *
 * Pass publish_frames = true when a CaEcFlatPass follows: the
 * sampled pre-lowering frames are then published under
 * kTwirlFramesKey so the scheduled CA-EC walk can rebuild the
 * twirled layer sequence.
 */
class LateTwirlPass : public Pass
{
  public:
    explicit LateTwirlPass(
        std::shared_ptr<ConjugationTable> tables,
        std::optional<TranspileOptions> native = std::nullopt,
        bool publish_frames = false)
        : _tables(std::move(tables)),
          _native(native),
          _publishFrames(publish_frames)
    {
    }

    std::string name() const override { return "late-twirl"; }
    void run(PassContext &context) override;
    bool isStochastic() const override { return true; }

  private:
    std::shared_ptr<ConjugationTable> _tables;
    std::optional<TranspileOptions> _native;
    bool _publishFrames;
};

/**
 * Analysis-only pass (Layered stage, deterministic): publish the
 * CA-EC walk's blueprint under kCaecPlanKey.  Runs in the
 * deterministic prefix of an ensemble pipeline, so the pre-lowering
 * layer capture happens once per ensemble; the property holds a
 * shared_ptr, so per-instance context forks copy a pointer rather
 * than the circuit.
 */
class CaEcPlanPass : public Pass
{
  public:
    std::string name() const override { return "ca-ec-plan"; }
    void run(PassContext &context) override;
};

/**
 * Context-aware error compensation (Flat stage, after flatten / any
 * transpile / late-twirl): runs Algorithm 2's walk over the layer
 * segments of the lowered stream, reconstructing the pre-lowering
 * twirled layers from the CaEcPlanPass blueprint and the frames the
 * LateTwirlPass published (see applyCaEcFlat()).  Publishes its
 * CaecStats under kCaecStatsKey.
 */
class CaEcFlatPass : public Pass
{
  public:
    CaEcFlatPass(CaecOptions options,
                 std::optional<TranspileOptions> native,
                 std::shared_ptr<ConjugationTable> tables)
        : _options(options),
          _native(native),
          _fragments(native ? std::make_shared<TranspileCache>(
                                  *native)
                            : nullptr),
          _tables(std::move(tables))
    {
    }

    std::string name() const override { return "ca-ec"; }
    void run(PassContext &context) override;

    const CaecOptions &options() const { return _options; }

  private:
    CaecOptions _options;
    std::optional<TranspileOptions> _native;

    /**
     * Per-instruction lowering cache shared across the ensemble
     * instances this pass object compiles: absorbed parameters only
     * differ across instances by twirl-frame sign flips, so the
     * distinct-fragment population is small and re-synthesis of
     * canonical blocks collapses into lookups.
     */
    std::shared_ptr<TranspileCache> _fragments;

    /**
     * Conjugation tables for the walk's commute-through math: the
     * pipeline's table, warmed by the twirl-plan pass in the prefix.
     */
    std::shared_ptr<ConjugationTable> _tables;
};

/** Lower Layered -> Flat, re-inserting layer barriers. */
class FlattenPass : public Pass
{
  public:
    std::string name() const override { return "flatten"; }
    void run(PassContext &context) override;
};

/** Lower the flat circuit to the native gate set (Flat stage). */
class TranspilePass : public Pass
{
  public:
    explicit TranspilePass(TranspileOptions options = {})
        : _options(options)
    {
    }

    std::string name() const override { return "transpile"; }
    void run(PassContext &context) override;

  private:
    TranspileOptions _options;
};

/** Lower Flat -> Scheduled via ASAP scheduling. */
class SchedulePass : public Pass
{
  public:
    std::string name() const override { return "schedule-asap"; }
    void run(PassContext &context) override;
};

/**
 * Analysis-only pass: publish the schedule's idle windows of at
 * least `minDuration` under kIdleWindowsKey (Scheduled stage).
 */
class IdleAnalysisPass : public Pass
{
  public:
    explicit IdleAnalysisPass(double min_duration = 150.0)
        : _minDuration(min_duration)
    {
    }

    std::string name() const override { return "idle-analysis"; }
    void run(PassContext &context) override;

  private:
    double _minDuration;
};

/** Context-unaware baseline DD (Scheduled stage). */
class UniformDdPass : public Pass
{
  public:
    UniformDdPass(UniformDdStyle style, double min_duration)
        : _style(style), _minDuration(min_duration)
    {
    }

    std::string name() const override;
    void run(PassContext &context) override;

  private:
    UniformDdStyle _style;
    double _minDuration;
};

/** Context-aware dynamical decoupling, Algorithm 1 (Scheduled). */
class CaDdPass : public Pass
{
  public:
    explicit CaDdPass(CaddOptions options = {})
        : _options(options)
    {
    }

    std::string name() const override { return "ca-dd"; }
    void run(PassContext &context) override;

    const CaddOptions &options() const { return _options; }

  private:
    CaddOptions _options;
};

} // namespace casq

#endif // CASQ_PASSES_BUILTIN_HH
