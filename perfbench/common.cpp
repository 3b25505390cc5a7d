#include "common.hpp"

#include "image/metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double
Options::number(const std::string &name) const
{
    const auto it = values.find(name);
    if (it == values.end())
        throw std::invalid_argument("missing workload constant --" + name);
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size())
        throw std::invalid_argument("bad number for --" + name + ": " +
                                    it->second);
    return value;
}

std::uint64_t
Options::integer(const std::string &name) const
{
    const double value = number(name);
    if (value < 0 || value != std::floor(value))
        throw std::invalid_argument("--" + name +
                                    " must be a whole number");
    return static_cast<std::uint64_t>(value);
}

std::vector<double>
Options::numbers(const std::string &name) const
{
    const auto it = values.find(name);
    if (it == values.end())
        throw std::invalid_argument("missing workload constant --" + name);
    std::vector<double> out;
    std::stringstream list(it->second);
    std::string item;
    while (std::getline(list, item, ','))
        out.push_back(std::stod(item));
    if (out.empty())
        throw std::invalid_argument("empty list for --" + name);
    return out;
}

std::uint64_t
hashBytes(const void *data, std::size_t size)
{
    // Word-wise multiply-xor; fast enough to fingerprint megabytes
    // between operations without touching the timed path.
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ size;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + i, 8);
        h = (h ^ word) * 0xff51afd7ed558ccdull;
        h ^= h >> 29;
    }
    for (; i < size; ++i)
        h = (h ^ bytes[i]) * 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

double
qualityOf(double snr_db, double threshold_db)
{
    if (std::isinf(snr_db) && snr_db > 0)
        return 1.0;
    return std::clamp(snr_db / threshold_db, 0.0, 1.0);
}

long
Ladder::find(std::uint64_t hash, std::size_t from) const
{
    for (std::size_t i = from; i < rungs.size(); ++i)
        if (rungs[i].hash == hash)
            return static_cast<long>(i);
    return -1;
}

long
Ladder::firstReaching(double threshold_db) const
{
    for (std::size_t i = 0; i < rungs.size(); ++i)
        if (rungs[i].snrDb >= threshold_db)
            return static_cast<long>(i);
    return -1;
}

bool
Ladder::monotone() const
{
    for (std::size_t i = 1; i < rungs.size(); ++i)
        if (rungs[i].snrDb < rungs[i - 1].snrDb)
            return false;
    return true;
}

std::uint64_t
hashImage(const anytime::GrayImage &image)
{
    return hashBytes(image.data().data(), image.size());
}

std::uint64_t
hashImage(const anytime::RgbImage &image)
{
    return hashBytes(image.data().data(),
                     image.size() * sizeof(anytime::RgbPixel));
}

bool
sameRungs(const Ladder &a, const Ladder &b)
{
    if (a.rungs.size() != b.rungs.size())
        return false;
    for (std::size_t i = 0; i < a.rungs.size(); ++i)
        if (a.rungs[i].hash != b.rungs[i].hash)
            return false;
    return true;
}

Ladder
conv2dLadder(const anytime::GrayImage &scene, const anytime::Kernel &kernel,
             const anytime::GrayImage &precise, std::uint64_t versions,
             unsigned workers)
{
    using namespace anytime;
    Ladder ladder;
    auto bundle = makeConv2dAutomaton(scene, kernel, {versions, workers, 8});
    bundle.output->addObserver([&](const Snapshot<GrayImage> &snap) {
        ladder.rungs.push_back({hashImage(*snap.value),
                                signalToNoiseDb(precise, *snap.value)});
    });
    bundle.automaton->start();
    bundle.automaton->waitUntilDone();
    bundle.automaton->shutdown();
    return ladder;
}

namespace {

/**
 * The image the kmeans reduce stage publishes for one assignment
 * version: centroids from the accumulated sums (the seed colour for an
 * empty cluster), then every label recoloured.
 */
anytime::RgbImage
renderAssignment(const anytime::KmeansAssignment &assignment,
                 const std::vector<anytime::RgbPixel> &seeds)
{
    using anytime::RgbPixel;
    std::vector<RgbPixel> centroids(assignment.sums.size());
    for (std::size_t c = 0; c < centroids.size(); ++c) {
        const anytime::ClusterSum &sum = assignment.sums[c];
        if (sum.count == 0) {
            centroids[c] = seeds[c];
            continue;
        }
        const std::uint64_t n = sum.count;
        centroids[c] = RgbPixel{
            static_cast<std::uint8_t>((sum.r + n / 2) / n),
            static_cast<std::uint8_t>((sum.g + n / 2) / n),
            static_cast<std::uint8_t>((sum.b + n / 2) / n)};
    }
    anytime::RgbImage out(assignment.labels.width(),
                          assignment.labels.height());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = centroids[assignment.labels[i]];
    return out;
}

} // namespace

Ladder
kmeansLadder(const anytime::RgbImage &scene,
             const anytime::KmeansResult &precise, unsigned clusters,
             std::uint64_t versions, unsigned workers)
{
    using namespace anytime;
    const std::vector<RgbPixel> seeds = kmeansSeeds(scene, clusters);
    Ladder ladder;
    auto bundle = makeKmeansAutomaton(scene, {clusters, versions, workers});
    bundle.assignment->addObserver(
        [&](const Snapshot<KmeansAssignment> &snap) {
            const RgbImage image = renderAssignment(*snap.value, seeds);
            ladder.rungs.push_back(
                {hashImage(image), signalToNoiseDb(precise.image, image)});
        });
    bundle.automaton->start();
    bundle.automaton->waitUntilDone();
    bundle.automaton->shutdown();
    return ladder;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Json::key(const std::string &name)
{
    if (!first.back())
        out += ',';
    first.back() = false;
    if (!name.empty()) {
        out += '"';
        for (const char ch : name) {
            if (ch == '"' || ch == '\\')
                out += '\\';
            out += ch;
        }
        out += "\":";
    }
}

Json &
Json::beginObject(const std::string &name)
{
    key(name);
    out += '{';
    first.push_back(true);
    return *this;
}

Json &
Json::endObject()
{
    out += '}';
    first.pop_back();
    return *this;
}

Json &
Json::beginArray(const std::string &name)
{
    key(name);
    out += '[';
    first.push_back(true);
    return *this;
}

Json &
Json::endArray()
{
    out += ']';
    first.pop_back();
    return *this;
}

namespace {

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

Json &
Json::field(const std::string &name, double value)
{
    key(name);
    out += number(value);
    return *this;
}

Json &
Json::field(const std::string &name, const std::string &value)
{
    key(name);
    out += '"';
    for (const char ch : value) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    out += '"';
    return *this;
}

Json &
Json::field(const std::string &name, bool value)
{
    key(name);
    out += value ? "true" : "false";
    return *this;
}

Json &
Json::field(const std::string &name, const std::vector<double> &values)
{
    beginArray(name);
    for (const double value : values) {
        key("");
        out += number(value);
    }
    return endArray();
}

void
Outcome::check(const std::string &name, bool ok, const std::string &detail)
{
    for (Check &existing : checks) {
        if (existing.name == name) {
            if (existing.ok && !ok) {
                existing.ok = false;
                existing.detail = detail;
                std::cerr << "perfbench: check failed: " << name << ": "
                          << detail << "\n";
            }
            return;
        }
    }
    checks.push_back({name, ok, detail});
    if (!ok)
        std::cerr << "perfbench: check failed: " << name << ": " << detail
                  << "\n";
}

} // namespace perfbench
