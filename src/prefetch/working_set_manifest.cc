#include "prefetch/working_set_manifest.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "sim/logging.h"

namespace catalyzer::prefetch {

namespace {
constexpr const char *kMagic = "catalyzer-ws";
} // namespace

WorkingSetManifest::WorkingSetManifest(std::string function_name,
                                       std::uint64_t image_generation,
                                       std::size_t max_traces,
                                       double min_fraction)
    : function_name_(std::move(function_name)),
      image_generation_(image_generation), max_traces_(max_traces),
      min_fraction_(min_fraction)
{
    if (max_traces_ == 0)
        sim::panic("WorkingSetManifest %s: max_traces must be positive",
                   function_name_.c_str());
    min_fraction_ = std::clamp(min_fraction_, 0.0, 1.0);
}

void
WorkingSetManifest::addTrace(const std::vector<mem::PageIndex> &ordered_pages)
{
    if (frozen())
        return;
    std::set<mem::PageIndex> in_this_trace;
    for (mem::PageIndex page : ordered_pages) {
        if (!in_this_trace.insert(page).second)
            continue; // duplicate within the trace
        auto [it, inserted] = pages_.try_emplace(page);
        if (inserted)
            it->second.firstSeen = next_seen_++;
        ++it->second.hits;
    }
    ++traces_;
    dirty_ = true;
}

std::vector<mem::PageIndex>
WorkingSetManifest::stableSet() const
{
    if (traces_ == 0)
        return {};
    const auto threshold = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(min_fraction_ * static_cast<double>(traces_))));
    std::vector<const std::pair<const mem::PageIndex, PageStat> *> kept;
    kept.reserve(pages_.size());
    for (const auto &entry : pages_) {
        if (entry.second.hits >= threshold)
            kept.push_back(&entry);
    }
    // Batched reads follow the recorded access order, not address order.
    std::sort(kept.begin(), kept.end(),
              [](const auto *a, const auto *b) {
                  return a->second.firstSeen < b->second.firstSeen;
              });
    std::vector<mem::PageIndex> result;
    result.reserve(kept.size());
    for (const auto *entry : kept)
        result.push_back(entry->first);
    return result;
}

std::string
WorkingSetManifest::serialize() const
{
    std::ostringstream os;
    os << kMagic << " v" << kFormatVersion << "\n";
    os << "function " << function_name_ << "\n";
    os << "generation " << image_generation_ << "\n";
    os << "traces " << traces_ << " max " << max_traces_ << " fraction "
       << min_fraction_ << "\n";
    os << "pages " << pages_.size() << "\n";
    for (const auto &[page, stat] : pages_)
        os << page << " " << stat.hits << " " << stat.firstSeen << "\n";
    return os.str();
}

std::shared_ptr<WorkingSetManifest>
WorkingSetManifest::deserialize(const std::string &blob)
{
    std::istringstream is(blob);
    std::string magic, version;
    if (!(is >> magic >> version) || magic != kMagic ||
        version != std::string("v").append(std::to_string(kFormatVersion)))
        return nullptr;

    std::string key, function_name;
    std::uint64_t generation = 0;
    std::size_t traces = 0, max_traces = 0, npages = 0;
    double fraction = 0.0;
    if (!(is >> key >> function_name) || key != "function")
        return nullptr;
    if (!(is >> key >> generation) || key != "generation")
        return nullptr;
    if (!(is >> key >> traces) || key != "traces")
        return nullptr;
    if (!(is >> key >> max_traces) || key != "max")
        return nullptr;
    if (!(is >> key >> fraction) || key != "fraction")
        return nullptr;
    if (!(is >> key >> npages) || key != "pages")
        return nullptr;
    if (max_traces == 0)
        return nullptr;

    auto manifest = std::make_shared<WorkingSetManifest>(
        function_name, generation, max_traces, fraction);
    manifest->traces_ = traces;
    for (std::size_t i = 0; i < npages; ++i) {
        mem::PageIndex page = 0;
        PageStat stat;
        if (!(is >> page >> stat.hits >> stat.firstSeen))
            return nullptr;
        manifest->pages_.emplace(page, stat);
        manifest->next_seen_ =
            std::max(manifest->next_seen_, stat.firstSeen + 1);
    }
    return manifest;
}

} // namespace catalyzer::prefetch
