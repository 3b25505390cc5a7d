/**
 * @file
 * Shared rigs for the serving-runtime tests: a deterministic
 * slow-counter pipeline whose duration, publish cadence, and progress
 * probe are all controllable, packaged as a ServiceRequest factory.
 */

#ifndef ANYTIME_TESTS_SERVICE_TEST_UTIL_HPP
#define ANYTIME_TESTS_SERVICE_TEST_UTIL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "core/source_stage.hpp"
#include "service/request.hpp"

namespace anytime {

/** Lets a test reach the output buffer the factory created. */
struct CounterProbe
{
    std::shared_ptr<VersionedBuffer<long>> out;
};

/**
 * Request whose pipeline counts to @p steps, sleeping @p step_us per
 * step, publishing every @p publish_period steps. Progress is the
 * fraction of steps completed, so minQuality is directly testable.
 */
inline ServiceRequest
counterRequest(std::string name, std::uint64_t steps,
               std::uint64_t step_us, std::chrono::nanoseconds deadline,
               double min_quality = 0.0,
               std::shared_ptr<CounterProbe> probe = nullptr,
               std::uint64_t publish_period = 0)
{
    if (publish_period == 0)
        publish_period = std::max<std::uint64_t>(1, steps / 32);
    ServiceRequest request;
    request.name = std::move(name);
    request.deadline = deadline;
    request.minQuality = min_quality;
    request.factory = [steps, step_us, publish_period, probe] {
        auto automaton = std::make_unique<Automaton>();
        auto out = automaton->makeBuffer<long>("count");
        automaton->addStage(makeDiffusiveSource<long>(
            "counter", out, 0L, steps,
            [step_us](std::uint64_t, long &state, StageContext &) {
                state += 1;
                if (step_us > 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(step_us));
            },
            publish_period));
        PreparedPipeline pipeline;
        pipeline.progress = [out, steps] {
            const auto snap = out->read();
            return snap ? static_cast<double>(*snap.value) /
                              static_cast<double>(steps)
                        : 0.0;
        };
        pipeline.versionCount = [out] { return out->version(); };
        pipeline.automaton = std::move(automaton);
        if (probe)
            probe->out = out;
        return pipeline;
    };
    return request;
}

} // namespace anytime

#endif // ANYTIME_TESTS_SERVICE_TEST_UTIL_HPP
