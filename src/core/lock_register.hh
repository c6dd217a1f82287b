/**
 * @file
 * The per-processor Lock Register and Counter Register of paper §3.3.
 *
 * The Lock Register holds the union of the BFVector signatures of all
 * locks currently held by the running thread. Because multiple locks
 * can hash onto the same bit, a bank of small saturating counters (one
 * per Lock Register bit, 2-bit in the paper) tracks how many held
 * locks set each bit: releasing a lock decrements its bits' counters
 * and clears a bit only when its counter reaches zero.
 */

#ifndef HARD_CORE_LOCK_REGISTER_HH
#define HARD_CORE_LOCK_REGISTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/bloom.hh"
#include "detectors/vclock.hh"

namespace hard
{

/** Lock Register + Counter Register pair for one hardware context. */
class LockRegister
{
  public:
    /**
     * @param width_bits BFVector width (16 in the default design).
     * @param counter_bits Width of each saturating counter (paper: 2).
     */
    explicit LockRegister(unsigned width_bits = 16,
                          unsigned counter_bits = 2);

    /** Add @p lock to the lock set (lock acquire). */
    void acquire(Addr lock);

    /** Remove @p lock from the lock set (lock release). */
    void release(Addr lock);

    /** @return the current lock-set BFVector. */
    const BfVector &vector() const { return vec_; }

    /** @return the counter value for Lock Register bit @p bit. */
    unsigned counter(unsigned bit) const;

    /** @return the number of counters that have ever saturated. */
    std::uint64_t saturations() const { return saturations_; }

    /**
     * @return the bits whose counter has saturated since the last
     * reset(). A saturated counter has lost increments, so its bit may
     * be cleared early on release — the lock set then under-
     * approximates the held locks and candidate sets over-narrow
     * (provenance evidence for counter-saturation attribution).
     */
    std::uint32_t saturatedBits() const { return saturatedBits_; }

    /** Clear the registers (context switch / thread start). */
    void reset();

    unsigned width() const { return vec_.width(); }
    unsigned counterBits() const { return counterBits_; }

  private:
    BfVector vec_;
    std::vector<std::uint8_t> counters_;
    unsigned counterBits_;
    std::uint8_t maxCount_;
    std::uint64_t saturations_ = 0;
    std::uint32_t saturatedBits_ = 0;
};

/**
 * The Lock Registers as the lockset engine's lock tracking (HARD, the
 * hybrid): slot t is thread t's; HARD's per-processor model keeps core
 * c's in slot kMaxThreads + c. Mode-blind, because the hardware sees
 * one lock-word RMW either way (§3.3 tracks acquires, not modes): a
 * reader hold protects like a writer hold, and software detectors that
 * honor the mode can only have smaller locksets (hard ⊆ ideal).
 */
class LockRegisterFile
{
  public:
    static constexpr bool kModeBlind = true;

    LockRegisterFile(unsigned width_bits, unsigned counter_bits)
    {
        regs_.fill(LockRegister(width_bits, counter_bits));
    }

    std::uint32_t
    protecting(unsigned s, bool) const
    {
        return regs_[s].vector().raw();
    }

    void acquire(unsigned s, Addr lock, bool, bool) { regs_[s].acquire(lock); }
    void release(unsigned s, Addr lock, bool, bool) { regs_[s].release(lock); }
    LockRegister &operator[](unsigned s) { return regs_[s]; }
    const LockRegister &operator[](unsigned s) const { return regs_[s]; }

  private:
    std::array<LockRegister, 2 * kMaxThreads> regs_;
};

/** Bloom candidate sets: raw BFVector bits (all ones = "all locks"),
 * met by one AND (§3.2). */
struct BloomAnd
{
    using Set = std::uint32_t;
    static constexpr Set kUniverse = 0xffffffffu;

    static Set meet(const LockRegisterFile &, Set a, Set b) { return a & b; }

    static bool
    empty(const LockRegisterFile &regs, Set s)
    {
        return BfVector::rawSetEmpty(s, regs[0].width());
    }
};

} // namespace hard

#endif // HARD_CORE_LOCK_REGISTER_HH
