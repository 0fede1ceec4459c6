#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <vector>

#include "src/isa/assembler.hpp"
#include "src/isa/verifier.hpp"
#include "src/sim/gpu.hpp"
#include "tests/test_seeds.hpp"

/**
 * Differential property test: random structured, race-free kernels run
 * on the full SIMT simulator must produce exactly the results of a
 * scalar per-thread reference interpreter. Every thread reads only a
 * shared immutable input array and writes only its own output cell, so
 * scalar semantics and SIMT semantics coincide — any mismatch is a bug
 * in the assembler, the CFG/IPDOM pass, the reconvergence stack, the
 * scoreboard or the pipeline.
 */

namespace bowsim {
namespace {

constexpr unsigned kInputWords = 256;

/** Generates a random structured kernel (nested ifs and bounded loops). */
class ProgramGenerator {
  public:
    explicit ProgramGenerator(std::uint32_t seed) : rng_(seed) {}

    std::string
    generate()
    {
        os_ << ".kernel random_prog\n.param 3\n";
        // %r0 = global tid, kept live throughout.
        os_ << "  mov %r0, %ctaid;\n";
        os_ << "  mov %r1, %ntid;\n";
        os_ << "  mad %r0, %r0, %r1, %tid;\n";
        os_ << "  ld.param.u64 %r10, [0];\n";  // input base
        os_ << "  ld.param.u64 %r11, [8];\n";  // output base
        os_ << "  ld.param.u64 %r12, [16];\n"; // thread count
        os_ << "  setp.ge.s64 %p0, %r0, %r12;\n";
        os_ << "  @%p0 exit;\n";
        // Seed the working registers %r2..%r6 from tid and input.
        for (int r = 2; r <= 6; ++r) {
            if (flip()) {
                os_ << "  mov %r" << r << ", " << smallImm() << ";\n";
            } else {
                loadInput(r);
            }
        }
        emitBlock(2);
        // Fold the working registers and store to out[tid].
        os_ << "  xor %r2, %r2, %r3;\n";
        os_ << "  add %r2, %r2, %r4;\n";
        os_ << "  xor %r2, %r2, %r5;\n";
        os_ << "  add %r2, %r2, %r6;\n";
        os_ << "  shl %r7, %r0, 3;\n";
        os_ << "  add %r7, %r11, %r7;\n";
        os_ << "  st.global.u64 [%r7], %r2;\n";
        os_ << "  exit;\n";
        return os_.str();
    }

  private:
    bool flip() { return rng_() & 1; }
    int workReg() { return 2 + static_cast<int>(rng_() % 5); }
    Word smallImm() { return static_cast<Word>(rng_() % 64) - 16; }

    void
    loadInput(int dst)
    {
        // in[(tid + K) % kInputWords] — race-free shared reads.
        unsigned k = rng_() % kInputWords;
        os_ << "  add %r8, %r0, " << k << ";\n";
        os_ << "  and %r8, %r8, " << (kInputWords - 1) << ";\n";
        os_ << "  shl %r8, %r8, 3;\n";
        os_ << "  add %r8, %r10, %r8;\n";
        os_ << "  ld.global.u64 %r" << dst << ", [%r8];\n";
    }

    void
    emitAlu()
    {
        static const char *ops[] = {"add", "sub", "mul", "and", "or",
                                    "xor", "min", "max", "shl", "shr",
                                    "div", "rem"};
        const char *op = ops[rng_() % 12];
        int d = workReg();
        int a = workReg();
        if (std::string(op) == "shl" || std::string(op) == "shr") {
            os_ << "  " << op << " %r" << d << ", %r" << a << ", "
                << (rng_() % 8) << ";\n";
        } else if (flip()) {
            os_ << "  " << op << " %r" << d << ", %r" << a << ", %r"
                << workReg() << ";\n";
        } else {
            os_ << "  " << op << " %r" << d << ", %r" << a << ", "
                << smallImm() << ";\n";
        }
    }

    void
    emitIf(unsigned depth)
    {
        static const char *cmps[] = {"lt", "gt", "eq", "ne", "le", "ge"};
        unsigned label = nextLabel_++;
        bool has_else = flip();
        os_ << "  setp." << cmps[rng_() % 6] << ".s64 %p1, %r"
            << workReg() << ", " << smallImm() << ";\n";
        os_ << "  @%p1 bra T" << label << ";\n";
        emitBlock(depth - 1);  // else side (fall-through)
        if (has_else) {
            os_ << "  bra.uni J" << label << ";\n";
            os_ << "T" << label << ":\n";
            emitBlock(depth - 1);
            os_ << "J" << label << ":\n";
        } else {
            os_ << "T" << label << ":\n";
        }
        os_ << "  nop;\n";
    }

    void
    emitLoop(unsigned depth)
    {
        unsigned label = nextLabel_++;
        unsigned trips = 1 + rng_() % 5;
        os_ << "  mov %r9, 0;\n";
        os_ << "LP" << label << ":\n";
        emitBlock(depth - 1);
        os_ << "  add %r9, %r9, 1;\n";
        os_ << "  setp.lt.s64 %p2, %r9, " << trips << ";\n";
        os_ << "  @%p2 bra LP" << label << ";\n";
    }

    void
    emitBlock(unsigned depth)
    {
        unsigned stmts = 1 + rng_() % 4;
        for (unsigned i = 0; i < stmts; ++i) {
            unsigned roll = rng_() % 10;
            if (depth > 0 && roll < 2) {
                emitIf(depth);
            } else if (depth > 0 && roll == 2 && !inLoop_) {
                // One non-nested loop keeps trip counts predictable.
                inLoop_ = true;
                emitLoop(depth);
                inLoop_ = false;
            } else {
                emitAlu();
            }
        }
    }

    std::mt19937 rng_;
    std::ostringstream os_;
    unsigned nextLabel_ = 0;
    bool inLoop_ = false;
};

/** Scalar per-thread reference interpreter for the generated subset. */
class ScalarRef {
  public:
    ScalarRef(const Program &prog, const std::vector<Word> &input,
              unsigned num_threads, unsigned block_size)
        : prog_(prog), input_(input), numThreads_(num_threads),
          blockSize_(block_size)
    {
    }

    /** Returns out[tid] or nullopt if the thread exited before storing. */
    Word
    run(unsigned tid) const
    {
        std::vector<Word> regs(prog_.numRegs, 0);
        std::vector<bool> preds(prog_.numPreds, false);
        Word stored = 0;
        auto read = [&](const Operand &op) -> Word {
            switch (op.kind) {
              case Operand::Kind::Reg:
                return regs[op.index];
              case Operand::Kind::Imm:
                return op.imm;
              case Operand::Kind::Pred:
                return preds[op.index] ? 1 : 0;
              case Operand::Kind::Special:
                switch (static_cast<SpecialReg>(op.index)) {
                  case SpecialReg::TidX:
                    return tid % blockSize_;
                  case SpecialReg::CtaIdX:
                    return tid / blockSize_;
                  case SpecialReg::NTidX:
                    return blockSize_;
                  case SpecialReg::NCtaIdX:
                    return (numThreads_ + blockSize_ - 1) / blockSize_;
                  case SpecialReg::LaneId:
                    return tid % kWarpSize;
                  case SpecialReg::WarpId:
                    return (tid % blockSize_) / kWarpSize;
                  default:
                    return 0;
                }
              default:
                return 0;
            }
        };
        auto wrap = [](std::uint64_t v) { return static_cast<Word>(v); };

        Pc pc = 0;
        std::uint64_t steps = 0;
        while (pc < prog_.length()) {
            if (++steps > 2'000'000)
                throw std::runtime_error("reference interpreter ran away");
            const Instruction &inst = prog_.at(pc);
            bool execute = true;
            if (inst.guard >= 0) {
                bool g = preds[inst.guard];
                execute = inst.guardNegate ? !g : g;
            }
            if (!execute) {
                ++pc;
                continue;
            }
            Word a = inst.src[0].valid() ? read(inst.src[0]) : 0;
            Word b = inst.src[1].valid() ? read(inst.src[1]) : 0;
            Word c = inst.src[2].valid() ? read(inst.src[2]) : 0;
            switch (inst.op) {
              case Opcode::Mov: regs[inst.dst.index] = a; break;
              case Opcode::Add:
                regs[inst.dst.index] = wrap(std::uint64_t(a) + b);
                break;
              case Opcode::Sub:
                regs[inst.dst.index] = wrap(std::uint64_t(a) - b);
                break;
              case Opcode::Mul:
                regs[inst.dst.index] = wrap(std::uint64_t(a) * b);
                break;
              case Opcode::Mad:
                regs[inst.dst.index] =
                    wrap(std::uint64_t(a) * b + std::uint64_t(c));
                break;
              case Opcode::Div:
                regs[inst.dst.index] =
                    b == 0 ? 0
                    : b == -1 ? wrap(-std::uint64_t(a))
                              : a / b;
                break;
              case Opcode::Rem:
                regs[inst.dst.index] =
                    b == 0 ? 0 : (b == -1 ? 0 : a % b);
                break;
              case Opcode::Min:
                regs[inst.dst.index] = std::min(a, b);
                break;
              case Opcode::Max:
                regs[inst.dst.index] = std::max(a, b);
                break;
              case Opcode::And: regs[inst.dst.index] = a & b; break;
              case Opcode::Or: regs[inst.dst.index] = a | b; break;
              case Opcode::Xor: regs[inst.dst.index] = a ^ b; break;
              case Opcode::Not: regs[inst.dst.index] = ~a; break;
              case Opcode::Shl:
                regs[inst.dst.index] =
                    wrap(std::uint64_t(a) << (b & 63));
                break;
              case Opcode::Shr:
                regs[inst.dst.index] =
                    wrap(std::uint64_t(a) >> (b & 63));
                break;
              case Opcode::Setp: {
                bool r = false;
                switch (inst.cmp) {
                  case CmpOp::Eq: r = a == b; break;
                  case CmpOp::Ne: r = a != b; break;
                  case CmpOp::Lt: r = a < b; break;
                  case CmpOp::Le: r = a <= b; break;
                  case CmpOp::Gt: r = a > b; break;
                  case CmpOp::Ge: r = a >= b; break;
                }
                preds[inst.dst.index] = r;
                break;
              }
              case Opcode::Selp:
                regs[inst.dst.index] =
                    preds[inst.src[2].index] ? a : b;
                break;
              case Opcode::Bra:
                pc = inst.target;
                continue;
              case Opcode::Exit:
                return stored;
              case Opcode::Nop:
                break;
              case Opcode::Ld:
                if (inst.space == MemSpace::Param) {
                    unsigned idx = static_cast<unsigned>(
                        (a + inst.memOffset) / 8);
                    regs[inst.dst.index] = params_[idx];
                } else {
                    // Only input-array reads occur in generated code.
                    Addr addr = static_cast<Addr>(a + inst.memOffset);
                    unsigned idx =
                        static_cast<unsigned>((addr - inputBase_) / 8);
                    regs[inst.dst.index] = input_.at(idx);
                }
                break;
              case Opcode::St:
                stored = b;  // out[tid]
                break;
              default:
                throw std::runtime_error("unexpected opcode in ref");
            }
            ++pc;
        }
        return stored;
    }

    void
    setMemory(Addr input_base, const std::vector<Word> &params)
    {
        inputBase_ = input_base;
        params_ = params;
    }

  private:
    const Program &prog_;
    const std::vector<Word> &input_;
    unsigned numThreads_;
    unsigned blockSize_;
    Addr inputBase_ = 0;
    std::vector<Word> params_;
};

class RandomPrograms : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomPrograms, SimMatchesScalarReference)
{
    const std::uint32_t seed = GetParam();
    ProgramGenerator gen(seed);
    std::string source = gen.generate();
    Program prog = assemble(source);
    verifyOrDie(prog);

    const unsigned block = 64;
    const unsigned ctas = 3;
    const unsigned threads = block * ctas - 17;  // ragged edge

    std::vector<Word> input(kInputWords);
    std::mt19937_64 data_rng(seed ^ 0xbeef);
    for (auto &w : input)
        w = static_cast<Word>(data_rng() % 100000) - 50000;

    // Both execution modes share one data path, so each is held to the
    // independent scalar reference, not just to the other.
    for (ExecMode mode : {ExecMode::Cycle, ExecMode::Functional}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 2;
        cfg.execMode = mode;
        Gpu gpu(cfg);
        Addr in = gpu.malloc(kInputWords * 8);
        Addr out = gpu.malloc((threads + 32) * 8);
        gpu.memcpyToDevice(in, input.data(), kInputWords * 8);
        std::vector<Word> params = {static_cast<Word>(in),
                                    static_cast<Word>(out),
                                    static_cast<Word>(threads)};
        gpu.launch(prog, Dim3{ctas, 1, 1}, Dim3{block, 1, 1}, params);
        std::vector<Word> got(threads);
        gpu.memcpyFromDevice(got.data(), out, threads * 8);

        ScalarRef ref(prog, input, threads, block);
        ref.setMemory(in, params);
        for (unsigned tid = 0; tid < threads; ++tid) {
            ASSERT_EQ(got[tid], ref.run(tid))
                << toString(mode) << " mode, seed " << seed << " thread "
                << tid << " (replay with BOWSIM_TEST_SEED=" << seed
                << ")\nprogram:\n"
                << source;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::ValuesIn(testSeeds()));

TEST(RandomPrograms, GeneratedProgramsPassTheVerifier)
{
    for (std::uint32_t seed = 100; seed < 140; ++seed) {
        ProgramGenerator gen(seed);
        Program prog = assemble(gen.generate());
        EXPECT_TRUE(verify(prog).empty()) << "seed " << seed;
    }
}

TEST(RandomPrograms, DisassembleReassembleIsEquivalent)
{
    for (std::uint32_t seed = 200; seed < 216; ++seed) {
        ProgramGenerator gen(seed);
        Program prog = assemble(gen.generate());
        Program round = assemble(disassemble(prog));
        ASSERT_EQ(prog.length(), round.length()) << "seed " << seed;
        for (Pc pc = 0; pc < prog.length(); ++pc) {
            EXPECT_EQ(prog.at(pc).op, round.at(pc).op) << "pc " << pc;
            EXPECT_EQ(prog.at(pc).target, round.at(pc).target);
            EXPECT_EQ(prog.at(pc).guard, round.at(pc).guard);
        }
    }
}

}  // namespace
}  // namespace bowsim
