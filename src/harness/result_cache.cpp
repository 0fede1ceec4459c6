#include "src/harness/result_cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/log.hpp"
#include "src/harness/fingerprint.hpp"
#include "src/harness/json.hpp"
#include "src/harness/sweep.hpp"

namespace fs = std::filesystem;

namespace bowsim::harness {

const char *
toString(CacheMode mode)
{
    switch (mode) {
      case CacheMode::Off: return "off";
      case CacheMode::ReadOnly: return "ro";
      case CacheMode::ReadWrite: return "rw";
    }
    return "?";
}

bool
parseCacheMode(const std::string &text, CacheMode *out)
{
    if (text == "off") {
        *out = CacheMode::Off;
        return true;
    }
    if (text == "ro") {
        *out = CacheMode::ReadOnly;
        return true;
    }
    if (text == "rw") {
        *out = CacheMode::ReadWrite;
        return true;
    }
    return false;
}

namespace {

/** Whole-file read; false on any I/O problem (treated as a miss). */
bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return false;
    *out = buf.str();
    return true;
}

/**
 * Temp-file + atomic-rename publish. The temp name is unique per thread
 * so concurrent writers of the same record never collide mid-write; the
 * final rename is atomic on POSIX, so readers see either the old record,
 * the new one, or none — never a torn file. Returns false on any I/O
 * failure (cache writes are best-effort; the sweep result is unaffected).
 */
bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp."
             << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp = tmp_name.str();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << content;
        out.flush();
        if (!out) {
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

}  // namespace

ResultCache::ResultCache(std::string dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode)
{
    if (mode_ == CacheMode::Off)
        return;
    if (dir_.empty())
        fatal("result cache: empty cache directory");
    if (mode_ == CacheMode::ReadWrite) {
        std::error_code ec;
        fs::create_directories(fs::path(dir_) / "objects", ec);
        if (ec) {
            fatal("result cache: cannot create ", dir_, ": ",
                  ec.message());
        }
    }
}

std::string
ResultCache::recordPath(const std::string &fingerprint) const
{
    return (fs::path(dir_) / "objects" / (fingerprint + ".json"))
        .string();
}

bool
ResultCache::lookup(const std::string &fingerprint, KernelStats *out) const
{
    if (mode_ == CacheMode::Off)
        return false;
    std::string text;
    if (!readFile(recordPath(fingerprint), &text))
        return false;
    // Any defect — torn write survivor, version skew, a record hand-
    // edited into nonsense — is a miss, never an error: the point is
    // simply recomputed (and, in rw mode, the bad record overwritten).
    try {
        const Json rec = Json::parse(text);
        if (rec.at("cache_version").asInt() !=
            static_cast<std::int64_t>(kResultSchemaVersion))
            return false;
        if (rec.at("fingerprint").asString() != fingerprint)
            return false;
        *out = statsFromJson(rec.at("stats"));
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

void
ResultCache::store(const std::string &fingerprint, const std::string &id,
                   const KernelStats &stats)
{
    if (mode_ != CacheMode::ReadWrite)
        return;
    Json rec = Json::object();
    rec.set("cache_version", kResultSchemaVersion);
    rec.set("fingerprint", fingerprint);
    rec.set("id", id);
    rec.set("stats", statsToJson(stats));
    if (writeFileAtomic(recordPath(fingerprint), rec.dump(1) + "\n"))
        countStored();
    else
        warn("result cache: failed to store " + fingerprint);
}

CacheCounters
ResultCache::counters() const
{
    CacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.stored = stored_.load(std::memory_order_relaxed);
    c.bypassed = bypassed_.load(std::memory_order_relaxed);
    return c;
}

}  // namespace bowsim::harness
