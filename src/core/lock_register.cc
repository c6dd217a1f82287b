#include "core/lock_register.hh"

#include <bit>

#include "common/logging.hh"

namespace hard
{

LockRegister::LockRegister(unsigned width_bits, unsigned counter_bits)
    : vec_(width_bits), counterBits_(counter_bits)
{
    hard_fatal_if(counter_bits == 0 || counter_bits > 8,
                  "lock-register: bad counter width %u", counter_bits);
    counters_.assign(width_bits, 0);
    maxCount_ = static_cast<std::uint8_t>((1u << counter_bits) - 1);
}

void
LockRegister::acquire(Addr lock)
{
    const std::uint32_t sig = BfVector::signatureBits(lock, vec_.width());
    // A signature sets one bit per part: visit only those.
    for (std::uint32_t rest = sig; rest != 0; rest &= rest - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(rest));
        if (counters_[b] < maxCount_) {
            ++counters_[b];
        } else {
            // Saturated: the count is lost; the bit becomes sticky.
            ++saturations_;
            saturatedBits_ |= std::uint32_t{1} << b;
        }
    }
    vec_.setRaw(vec_.raw() | sig);
}

void
LockRegister::release(Addr lock)
{
    const std::uint32_t sig = BfVector::signatureBits(lock, vec_.width());
    std::uint32_t to_clear = 0;
    for (std::uint32_t rest = sig; rest != 0; rest &= rest - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(rest));
        if (counters_[b] > 0)
            --counters_[b];
        if (counters_[b] == 0)
            to_clear |= std::uint32_t{1} << b;
    }
    vec_.setRaw(vec_.raw() & ~to_clear);
}

unsigned
LockRegister::counter(unsigned bit) const
{
    hard_panic_if(bit >= counters_.size(), "lock-register: bad bit %u",
                  bit);
    return counters_[bit];
}

void
LockRegister::reset()
{
    vec_.clearAll();
    counters_.assign(counters_.size(), 0);
    saturatedBits_ = 0;
}

} // namespace hard
