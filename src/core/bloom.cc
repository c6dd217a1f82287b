#include "core/bloom.hh"

#include <cmath>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

namespace
{

/** Mask covering the low @p width bits. */
std::uint32_t
widthMask(unsigned width)
{
    return width >= 32 ? 0xffffffffu
                       : ((std::uint32_t{1} << width) - 1);
}

} // namespace

BfVector::BfVector(unsigned width_bits) : width_(checkWidth(width_bits))
{
}

BfVector
BfVector::allOnes(unsigned width_bits)
{
    BfVector v(width_bits);
    v.setAll();
    return v;
}

BfVector
BfVector::signatureOf(Addr lock, unsigned width_bits)
{
    BfVector v(width_bits);
    v.bits_ = signatureBits(lock, width_bits);
    return v;
}

bool
BfVector::rawSetEmpty(std::uint32_t raw, unsigned width_bits)
{
    const unsigned part = width_bits / kParts;
    const std::uint32_t part_mask = widthMask(part);
    for (unsigned p = 0; p < kParts; ++p) {
        if (((raw >> (p * part)) & part_mask) == 0)
            return true;
    }
    return false;
}

void
BfVector::setAll()
{
    bits_ = widthMask(width_);
}

void
BfVector::clearAll()
{
    bits_ = 0;
}

BfVector &
BfVector::operator|=(const BfVector &o)
{
    hard_panic_if(width_ != o.width_, "bloom: width mismatch %u vs %u",
                  width_, o.width_);
    bits_ |= o.bits_;
    return *this;
}

BfVector &
BfVector::operator&=(const BfVector &o)
{
    hard_panic_if(width_ != o.width_, "bloom: width mismatch %u vs %u",
                  width_, o.width_);
    bits_ &= o.bits_;
    return *this;
}

bool
BfVector::allSet() const
{
    return bits_ == widthMask(width_);
}

bool
BfVector::mayContain(Addr lock) const
{
    std::uint32_t sig = signatureBits(lock, width_);
    return (bits_ & sig) == sig;
}

void
BfVector::setRaw(std::uint32_t raw)
{
    bits_ = raw & widthMask(width_);
}

std::string
BfVector::toString() const
{
    const unsigned part = partBits();
    std::string s;
    for (unsigned b = width_; b-- > 0;) {
        s += (bits_ >> b) & 1 ? '1' : '0';
        if (b != 0 && b % part == 0)
            s += '|';
    }
    return s;
}

double
bloomMissProbability(unsigned part_len, unsigned set_size)
{
    hard_fatal_if(part_len < 2, "bloom: part length must be > 1");
    const double n = static_cast<double>(part_len);
    const double m = static_cast<double>(set_size);
    const double cr_part = 1.0 - std::pow((n - 1.0) / n, m);
    return std::pow(cr_part, 4.0);
}

} // namespace hard
