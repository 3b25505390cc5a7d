#include "net/catalog.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/source_stage.hpp"

namespace anytime::net {

void
PipelineCatalog::add(const std::string &name, Handler handler)
{
    MutexLock lock(mutex);
    handlers[name] = std::move(handler);
}

NetPipeline
PipelineCatalog::build(const std::string &name,
                       const NetRequestParams &params) const
{
    Handler handler;
    {
        MutexLock lock(mutex);
        const auto it = handlers.find(name);
        if (it == handlers.end())
            throw std::invalid_argument("unknown pipeline '" + name +
                                        "'");
        handler = it->second;
    }
    return handler(params);
}

bool
PipelineCatalog::has(const std::string &name) const
{
    MutexLock lock(mutex);
    return handlers.count(name) != 0;
}

std::vector<std::string>
PipelineCatalog::names() const
{
    MutexLock lock(mutex);
    std::vector<std::string> out;
    out.reserve(handlers.size());
    for (const auto &[name, handler] : handlers)
        out.push_back(name);
    return out;
}

namespace {

/** Parse "steps[:step_us[:publish_period]]", throwing on garbage. */
void
parseCounterSpec(const std::string &input, std::uint64_t &steps,
                 std::uint64_t &step_us, std::uint64_t &period)
{
    steps = 64;
    step_us = 200;
    period = 0;
    if (input.empty()) {
        period = std::max<std::uint64_t>(1, steps / 32);
        return;
    }
    std::uint64_t *fields[3] = {&steps, &step_us, &period};
    std::size_t pos = 0;
    for (int field = 0; field < 3 && pos <= input.size(); ++field) {
        std::size_t colon = input.find(':', pos);
        if (colon == std::string::npos)
            colon = input.size();
        const std::string token = input.substr(pos, colon - pos);
        if (!token.empty()) {
            std::size_t used = 0;
            unsigned long long value = 0;
            try {
                value = std::stoull(token, &used);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used != token.size())
                throw std::invalid_argument(
                    "counter: bad input spec '" + input +
                    "' (want steps[:step_us[:publish_period]])");
            *fields[field] = value;
        }
        pos = colon + 1;
    }
    if (steps == 0)
        throw std::invalid_argument("counter: steps must be positive");
    if (period == 0)
        period = std::max<std::uint64_t>(1, steps / 32);
}

} // namespace

void
registerCounterPipeline(PipelineCatalog &catalog)
{
    catalog.add("counter", [](const NetRequestParams &params) {
        std::uint64_t steps = 0;
        std::uint64_t step_us = 0;
        std::uint64_t period = 0;
        parseCounterSpec(params.input, steps, step_us, period);

        NetPipeline net;
        net.factory = [steps, step_us, period] {
            auto automaton = std::make_unique<Automaton>();
            auto out = automaton->makeBuffer<long>("count");
            automaton->addStage(
                std::make_shared<DiffusiveSourceStage<long>>(
                    "counter", out, 0L, steps,
                    [step_us](std::uint64_t, long &state,
                              StageContext &) {
                        state += 1;
                        if (step_us > 0)
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(step_us));
                    },
                    period));

            PreparedPipeline pipeline;
            pipeline.progress = [out, steps] {
                const auto snap = out->read();
                return snap ? static_cast<double>(*snap.value) /
                                  static_cast<double>(steps)
                            : 0.0;
            };
            pipeline.versionCount = [out] { return out->version(); };
            pipeline.attachSink = [out, steps](VersionSink sink) {
                out->addObserver(
                    [sink = std::move(sink),
                     steps](const Snapshot<long> &snap) {
                        if (!snap.value)
                            return;
                        VersionUpdate update;
                        update.version = snap.version;
                        update.final = snap.final;
                        update.degraded = snap.degraded;
                        update.quality =
                            static_cast<double>(*snap.value) /
                            static_cast<double>(steps);
                        update.payload =
                            std::make_shared<const std::string>(
                                std::to_string(*snap.value));
                        update.stage = "counter";
                        sink(update);
                    });
            };
            pipeline.automaton = std::move(automaton);
            return pipeline;
        };
        return net;
    });
}

} // namespace anytime::net
