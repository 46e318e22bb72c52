/**
 * @file
 * Built-in passes wrapping each of the repo's circuit
 * transformations, so strategy pipelines (and user pipelines) are
 * assembled from uniform Pass objects instead of hardcoded calls.
 *
 * Every pass documents the stage it expects; see docs/passes.md for
 * the full contract and a worked custom-pass example.  Blueprints
 * and analysis results flow between passes through the context's
 * PassArtifacts record (pass.hh).
 */

#ifndef CASQ_PASSES_BUILTIN_HH
#define CASQ_PASSES_BUILTIN_HH

#include <memory>

#include "circuit/unitary.hh"
#include "passes/ca_dd.hh"
#include "passes/ca_ec.hh"
#include "passes/pass.hh"
#include "passes/twirling.hh"

namespace casq {

/**
 * Analysis-only pass (Layered stage, deterministic): publish the
 * twirl blueprint as PassArtifacts::twirlPlan and pre-build the
 * conjugation table of every targeted two-qubit gate into the
 * pipeline's shared ConjugationTable.  Running in the deterministic
 * prefix of an ensemble pipeline, it moves both the blueprint
 * capture and the numeric table construction out of the
 * per-instance suffix.
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
 * When the pipeline lowers to the native gate set, construct with
 * the pipeline's TranspileCache, so the frame gates receive the
 * same lowering as the rest of the stream; null means the stream
 * is not lowered.
 *
 * Pass publish_frames = true when a CaEcFlatPass follows: the
 * sampled pre-lowering frames are then published as
 * PassArtifacts::twirlFrames so the CA-EC walk can rebuild the
 * twirled layer sequence.
 */
class LateTwirlPass : public Pass
{
  public:
    explicit LateTwirlPass(
        std::shared_ptr<ConjugationTable> tables,
        std::shared_ptr<TranspileCache> native = nullptr,
        bool publish_frames = false)
        : _tables(std::move(tables)),
          _native(std::move(native)),
          _publishFrames(publish_frames)
    {
    }

    std::string name() const override { return "late-twirl"; }
    void run(PassContext &context) override;
    bool isStochastic() const override { return true; }

  private:
    std::shared_ptr<ConjugationTable> _tables;
    std::shared_ptr<TranspileCache> _native;
    bool _publishFrames;
};

/**
 * Analysis-only pass (Layered stage, deterministic): publish the
 * CA-EC walk's blueprint as PassArtifacts::caecPlan.  Runs in the
 * deterministic prefix of an ensemble pipeline, so the pre-lowering
 * layer capture happens once per ensemble; the artifact is a
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
 * PassArtifacts::caecStats.
 *
 * The scope (which error contexts to compensate) comes from the
 * strategy, apart from the user-settable options.  The conjugation
 * tables are the pipeline's, warmed by the twirl-plan pass in the
 * prefix; `native` is the pipeline's TranspileCache when it lowers
 * to the native gate set (null otherwise), shared with late-twirl
 * and across the ensemble instances.
 */
class CaEcFlatPass : public Pass
{
  public:
    CaEcFlatPass(CaecOptions options, CaecScope scope,
                 std::shared_ptr<TranspileCache> native,
                 std::shared_ptr<ConjugationTable> tables)
        : _options(options),
          _scope(scope),
          _native(std::move(native)),
          _tables(std::move(tables))
    {
    }

    std::string name() const override { return "ca-ec"; }
    void run(PassContext &context) override;

  private:
    CaecOptions _options;
    CaecScope _scope;
    std::shared_ptr<TranspileCache> _native;
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
    std::string name() const override { return "transpile"; }
    void run(PassContext &context) override;
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
 * least kMinIdleNs (the DD passes' Dmin) as
 * PassArtifacts::idleWindows (Scheduled stage).
 */
class IdleAnalysisPass : public Pass
{
  public:
    std::string name() const override { return "idle-analysis"; }
    void run(PassContext &context) override;
};

/** Context-unaware baseline DD (Scheduled stage). */
class UniformDdPass : public Pass
{
  public:
    explicit UniformDdPass(UniformDdStyle style) : _style(style) {}

    std::string name() const override;
    void run(PassContext &context) override;

  private:
    UniformDdStyle _style;
};

/** Context-aware dynamical decoupling, Algorithm 1 (Scheduled). */
class CaDdPass : public Pass
{
  public:
    std::string name() const override { return "ca-dd"; }
    void run(PassContext &context) override;
};

} // namespace casq

#endif // CASQ_PASSES_BUILTIN_HH
