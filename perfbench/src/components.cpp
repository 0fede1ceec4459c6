#include "perfbench/src/components.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "perfbench/src/spans.hpp"
#include "src/arch/simt_stack.hpp"
#include "src/arch/warp.hpp"
#include "src/core/ddos/history.hpp"
#include "src/core/ddos/sib_table.hpp"
#include "src/isa/assembler.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/coalescer.hpp"
#include "src/mem/l2_bank.hpp"
#include "src/sched/scheduler.hpp"

namespace perfbench {

using namespace bowsim;

namespace {

/** Results flow here so the timed calls cannot be optimized away. */
volatile std::uint64_t g_sink = 0;

/**
 * Median ns per call over five batches of @p calls calls each, after
 * one warm-up batch. @p batch(calls) makes the calls and returns a
 * value derived from their results.
 */
template <typename Batch>
double
nsPerCall(std::uint64_t calls, Batch &&batch)
{
    g_sink = g_sink + batch(calls);
    std::array<double, 5> ns{};
    for (double &v : ns) {
        const double t0 = now();
        g_sink = g_sink + batch(calls);
        v = (now() - t0) * 1e9 / static_cast<double>(calls);
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** Deterministic eligibility pattern for pick(): side-effect free. */
class PatternGate final : public IssueGate {
  public:
    bool
    eligible(Warp &w) const override
    {
        return (w.id() + phase) % 4 == 0;
    }
    unsigned phase = 0;
};

const char *
schedName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::LRR:
        return "lrr";
      case SchedulerKind::GTO:
        return "gto";
      case SchedulerKind::CAWA:
        return "cawa";
      case SchedulerKind::TwoLevel:
        return "two_level";
    }
    return "unknown";
}

void
timeMemory(std::vector<Component> &out)
{
    const GpuConfig cfg = makeGtx480Config();
    {
        // Every SM hammers one line with atomics: the L2 bank's atomic
        // service slot serializes them.
        MemorySystem ms(cfg);
        Cycle t = 0;
        out.push_back({"mem.request_atomic_ns",
                       nsPerCall(200000, [&](std::uint64_t calls) {
                           std::uint64_t acc = 0;
                           MemPacket pkt;
                           pkt.line = 0x10000;
                           pkt.type = MemPacket::Type::Atomic;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               pkt.smId = static_cast<unsigned>(
                                   i % cfg.numCores);
                               acc += ms.request(pkt, ++t);
                           }
                           return acc;
                       })});
    }
    {
        // Strided streaming loads over 64 MiB: L2 and DRAM misses.
        MemorySystem ms(cfg);
        Cycle t = 0;
        Addr line = 0;
        out.push_back({"mem.request_stream_ns",
                       nsPerCall(200000, [&](std::uint64_t calls) {
                           std::uint64_t acc = 0;
                           MemPacket pkt;
                           pkt.type = MemPacket::Type::Read;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               pkt.line = line;
                               pkt.smId = static_cast<unsigned>(
                                   i % cfg.numCores);
                               line = (line + 4 * kLineBytes) % (64u << 20);
                               acc += ms.request(pkt, ++t);
                           }
                           return acc;
                       })});
    }
    {
        Cache cache(cfg.l1d);
        const Addr bytes = cfg.l1d.sizeBytes;
        for (Addr a = 0; a < bytes; a += kLineBytes)
            cache.fill(a, false, nullptr);
        Addr a = 0;
        out.push_back({"mem.cache_access_ns",
                       nsPerCall(1000000, [&](std::uint64_t calls) {
                           std::uint64_t hits = 0;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               hits += cache.access(a, false);
                               a = (a + kLineBytes) % bytes;
                           }
                           return hits;
                       })});
    }
    {
        std::array<Addr, kWarpSize> addrs{};
        Addr base = 0x1000;
        out.push_back({"mem.coalesce_ns",
                       nsPerCall(200000, [&](std::uint64_t calls) {
                           std::uint64_t lines = 0;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               for (unsigned l = 0; l < kWarpSize; ++l)
                                   addrs[l] = base + 8 * l;
                               base += 8;
                               lines += coalesce(addrs, kFullMask).size();
                           }
                           return lines;
                       })});
    }
}

void
timeSchedulers(std::vector<Component> &out)
{
    for (SchedulerKind kind : {SchedulerKind::LRR, SchedulerKind::GTO,
                               SchedulerKind::CAWA,
                               SchedulerKind::TwoLevel}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.scheduler = kind;
        // One scheduler unit's share of a fully occupied SM.
        const unsigned n = cfg.maxWarpsPerCore() / cfg.numSchedulersPerCore;
        std::vector<std::unique_ptr<Warp>> owned;
        std::vector<Warp *> warps;
        for (unsigned i = 0; i < n; ++i) {
            owned.push_back(std::make_unique<Warp>(i, i / 4, i % 4, i, 16,
                                                   4, kFullMask));
            CawaState &c = owned.back()->cawa();
            c.estRemaining = 100.0 + 37.0 * ((i * 7) % n);
            c.issued = 10 + i;
            c.activeCycles = 40 + 3 * i;
            c.stallCycles = (i * 13) % 29;
            warps.push_back(owned.back().get());
        }
        std::unique_ptr<Scheduler> sched = makeScheduler(cfg);
        const std::string suffix = schedName(kind);
        Cycle t = 0;
        std::vector<Warp *> work;
        out.push_back({"sched.order_ns." + suffix,
                       nsPerCall(100000, [&](std::uint64_t calls) {
                           std::uint64_t acc = 0;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               work = warps;
                               sched->order(work, ++t);
                               Warp *w = work[i % n];
                               sched->notifyIssued(w, t);
                               acc += w->id();
                           }
                           return acc;
                       })});
        // The core's arbitration for one issue slot: pick() where the
        // policy has the fast path, else order() plus a scan for the
        // first eligible warp.
        UnitMask mask;
        mask.valid = true;
        mask.issuable = (n >= 64) ? ~0ull : ((1ull << n) - 1);
        PatternGate gate;
        out.push_back({"sched.pick_ns." + suffix,
                       nsPerCall(100000, [&](std::uint64_t calls) {
                           std::uint64_t acc = 0;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               gate.phase = static_cast<unsigned>(i);
                               Warp *w = nullptr;
                               if (sched->supportsPick()) {
                                   w = sched->pick(warps, mask, ++t, false,
                                                   gate);
                               } else {
                                   work = warps;
                                   sched->order(work, ++t);
                                   for (Warp *c : work) {
                                       if (gate.eligible(*c)) {
                                           w = c;
                                           break;
                                       }
                                   }
                               }
                               if (w) {
                                   sched->notifyIssued(w, t);
                                   acc += w->id();
                               }
                           }
                           return acc;
                       })});
    }
}

void
timeCoreUnits(std::vector<Component> &out)
{
    {
        DdosConfig cfg;
        HistoryRegisters h(cfg);
        std::uint32_t k = 0;
        out.push_back({"ddos.history_insert_ns",
                       nsPerCall(1000000, [&](std::uint64_t calls) {
                           for (std::uint64_t i = 0; i < calls; ++i, ++k)
                               h.insert(k & 1 ? 0x7 : 0x2, k & 0xf, 0x0);
                           return static_cast<std::uint64_t>(h.spinning());
                       })});
    }
    {
        DdosConfig cfg;
        SibTable table(cfg);
        for (Pc pc = 0; pc < 8; ++pc) {
            for (unsigned i = 0; i < 4; ++i)
                table.onSpinningBranch(pc);
        }
        Pc pc = 0;
        out.push_back({"ddos.sib_lookup_ns",
                       nsPerCall(1000000, [&](std::uint64_t calls) {
                           std::uint64_t hits = 0;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               hits += table.isConfirmed(pc);
                               pc = (pc + 1) % 16;
                           }
                           return hits;
                       })});
    }
    {
        // One divergent branch, both paths, reconvergence.
        Instruction bra;
        bra.op = Opcode::Bra;
        bra.guard = 0;
        bra.target = 10;
        bra.reconvergence = 20;
        out.push_back({"arch.simt_branch_ns",
                       nsPerCall(200000, [&](std::uint64_t calls) {
                           std::uint64_t acc = 0;
                           for (std::uint64_t i = 0; i < calls; ++i) {
                               SimtStack s;
                               s.reset(kFullMask);
                               s.branch(bra, 0xffffu << (i % 16));
                               for (unsigned k = 0; k < 64 && s.depth() > 1;
                                    ++k)
                                   s.advance();
                               acc += s.activeMask();
                           }
                           return acc;
                       })});
    }
    {
        const std::string src = R"(
.kernel spin
.param 2
  ld.param.u64 %r1, [0];
  ld.param.u64 %r2, [8];
LOOP:
  atom.global.cas.b64 %r3, [%r1], 0, 1;
  setp.ne.s64 %p1, %r3, 0;
  @%p1 bra LOOP;
  atom.global.exch.b64 %r4, [%r1], 0;
  exit;
)";
        out.push_back({"isa.assemble_ns",
                       nsPerCall(2000, [&](std::uint64_t calls) {
                           std::uint64_t insts = 0;
                           for (std::uint64_t i = 0; i < calls; ++i)
                               insts += assemble(src).code.size();
                           return insts;
                       })});
    }
}

}  // namespace

std::vector<Component>
timeComponents()
{
    std::vector<Component> out;
    timeMemory(out);
    timeSchedulers(out);
    timeCoreUnits(out);
    return out;
}

}  // namespace perfbench
