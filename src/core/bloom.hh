/**
 * @file
 * HARD's Bloom-filter vectors (BFVectors), paper §3.2 and Figure 4.
 *
 * A BFVector is a small fixed-width bit vector divided into four
 * parts. A lock address is mapped into the vector by slicing address
 * bits starting at bit 2 into four direct indices, one per part (for
 * the 16-bit vector: bits 2..9, two bits per part — exactly Figure 4).
 * Set union is bitwise OR, intersection is bitwise AND, and a set is
 * empty iff at least one part is all zero.
 */

#ifndef HARD_CORE_BLOOM_HH
#define HARD_CORE_BLOOM_HH

#include <bit>
#include <cstdint>
#include <string>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace hard
{

/** A BFVector of 16 or 32 bits (4 parts of 4 or 8 bits). */
class BfVector
{
  public:
    /** Number of parts the vector is divided into (paper: 4). */
    static constexpr unsigned kParts = 4;

    /**
     * @param width_bits Total vector width; must be a multiple of 4
     * with a power-of-two part size (16 and 32 are the paper's
     * configurations).
     */
    explicit BfVector(unsigned width_bits = 16);

    /** @return a vector of @p width_bits with every bit set — the
     * "all possible locks" initial candidate set. */
    static BfVector allOnes(unsigned width_bits);

    /** @return the Figure 4 signature of @p lock at @p width_bits. */
    static BfVector signatureOf(Addr lock, unsigned width_bits);

    /**
     * Fatal unless @p width_bits is a supported vector width.
     * @return @p width_bits.
     *
     * Header-inline, as is signatureBits(), so layers below hard_core
     * (the provenance recorder used by the exact-lockset detector) can
     * check widths and compute signatures without a link dependency.
     */
    static unsigned
    checkWidth(unsigned width_bits)
    {
        hard_fatal_if(width_bits % kParts != 0,
                      "bloom: width %u not divisible into 4 parts",
                      width_bits);
        const unsigned part = width_bits / kParts;
        hard_fatal_if(!isPowerOf2(part) || part < 2 || width_bits > 32,
                      "bloom: unsupported width %u", width_bits);
        return width_bits;
    }

    /**
     * @return the raw signature bits of @p lock (no object) at
     * @p width_bits, a width checkWidth() accepted. The width is not
     * re-checked: every holder of a width checked it once, where the
     * width was accepted (BfVector, LockRegister, ProvRecorder).
     */
    static std::uint32_t
    signatureBits(Addr lock, unsigned width_bits)
    {
        const unsigned part = width_bits / kParts;
        const auto idx_bits = static_cast<unsigned>(std::countr_zero(part));
        std::uint32_t sig = 0;
        // Figure 4: slice address bits starting at bit 2 into kParts
        // direct indices (16-bit: bits 2..9, 2 bits per part).
        for (unsigned p = 0; p < kParts; ++p) {
            unsigned first = 2 + p * idx_bits;
            unsigned idx = static_cast<unsigned>(
                bits(lock, first + idx_bits - 1, first));
            sig |= std::uint32_t{1} << (p * part + idx);
        }
        return sig;
    }

    /**
     * @return true iff a set represented by @p raw bits is empty at
     * @p width_bits, i.e. some part is all zero.
     */
    static bool rawSetEmpty(std::uint32_t raw, unsigned width_bits);

    /** Set every bit (candidate set := all possible locks). */
    void setAll();

    /** Clear every bit. */
    void clearAll();

    /** Set union (lock addition into a lock set). */
    BfVector &operator|=(const BfVector &o);

    /** Set intersection (candidate-set refinement). */
    BfVector &operator&=(const BfVector &o);

    /** @return true iff the represented set is empty (a race signal
     * when the vector is a candidate set in SharedModified). */
    bool setEmpty() const { return rawSetEmpty(bits_, width_); }

    /** @return true if every bit is set. */
    bool allSet() const;

    /**
     * Membership test: @return true if @p lock may be in the set
     * (Bloom filters have no false negatives on membership).
     */
    bool mayContain(Addr lock) const;

    std::uint32_t raw() const { return bits_; }
    unsigned width() const { return width_; }
    unsigned partBits() const { return width_ / kParts; }

    /** Replace the raw bits (masked to the width). */
    void setRaw(std::uint32_t raw);

    bool
    operator==(const BfVector &o) const
    {
        return width_ == o.width_ && bits_ == o.bits_;
    }

    /** @return e.g. "0101|0010|1000|0001" (part-separated, MSB first). */
    std::string toString() const;

  private:
    std::uint32_t bits_ = 0;
    unsigned width_ = 16;
};

/**
 * Analytic missing-race probability of §3.2: the chance that one
 * random lock collides with *all four* parts of a candidate set of
 * size @p m, for part length @p n:
 * CR_whole = (1 - ((n-1)/n)^m)^4.
 */
double bloomMissProbability(unsigned part_len, unsigned set_size);

} // namespace hard

#endif // HARD_CORE_BLOOM_HH
