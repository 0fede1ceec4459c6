#ifndef BOWSIM_ISA_EXEC_HPP
#define BOWSIM_ISA_EXEC_HPP

#include "src/common/types.hpp"
#include "src/isa/instruction.hpp"
#include "src/mem/lock_tracker.hpp"
#include "src/mem/memory_space.hpp"

/**
 * @file
 * Per-lane ISA semantics: ALU results, comparisons, special registers
 * and atomic read-modify-writes. Pure functional behaviour: no timing,
 * no statistics. executeDataPath (src/sim/sm_core.hpp) applies them
 * over a warp's lanes for both execution modes, which share that one
 * data path and differ only in control flow, timing and clock source.
 */

namespace bowsim::exec {

/** Wrapping signed arithmetic via unsigned (overflow is defined). */
inline Word
wrapAdd(Word a, Word b)
{
    return static_cast<Word>(static_cast<std::uint64_t>(a) +
                             static_cast<std::uint64_t>(b));
}

inline Word
wrapSub(Word a, Word b)
{
    return static_cast<Word>(static_cast<std::uint64_t>(a) -
                             static_cast<std::uint64_t>(b));
}

inline Word
wrapMul(Word a, Word b)
{
    return static_cast<Word>(static_cast<std::uint64_t>(a) *
                             static_cast<std::uint64_t>(b));
}

/** Result of a plain ALU-class opcode (Mov..Shr). */
Word aluCompute(const Instruction &inst, Word a, Word b, Word c);

/** Setp comparison semantics. */
bool compare(CmpOp op, Word a, Word b);

/** Per-thread identity a special-register read depends on. */
struct ThreadCtx {
    unsigned warpInCta = 0;
    unsigned ctaId = 0;
    unsigned blockThreads = 0;
    unsigned gridCtas = 0;
    unsigned smId = 0;
};

/** Special (read-only) register semantics shared by both executors. */
Word readSpecial(SpecialReg sr, const ThreadCtx &ctx, unsigned lane);

/**
 * One lane of an atomic read-modify-write: reads old, computes the next
 * value per inst.atom, writes it back, and keeps the LockTracker's
 * CAS/release bookkeeping in step. Returns the old value (the
 * destination-register result) and, for CAS, the tracker's outcome
 * classification so the caller can count lock-acquire statistics.
 *
 * @param operand  src[1] value for this lane (compare value / addend).
 * @param desired  src[2] value for this lane (CAS desired; ignored
 *                 otherwise).
 * @param warp_key globally unique nonzero key of the issuing warp
 *                 (warp age + 1), the LockTracker's owner identity.
 */
struct AtomicResult {
    Word old = 0;
    CasOutcome cas = CasOutcome::Success;
    bool isCas = false;
};

AtomicResult applyAtomicLane(MemorySpace &mem, LockTracker &tracker,
                             const Instruction &inst, Addr addr,
                             Word operand, Word desired,
                             std::uint64_t warp_key);

}  // namespace bowsim::exec

#endif  // BOWSIM_ISA_EXEC_HPP
