// BigInt: arithmetic identities, Knuth-division properties, shifts, codecs,
// modular exponentiation (Fermat checks, Montgomery against a textbook
// reference), modular inverse and the fixed capacity.
#include <gtest/gtest.h>

#include "bignum_testing.h"
#include "common/rng.h"
#include "crypto/bignum.h"

namespace ibsec::crypto {
namespace {

BigInt random_bigint(Rng& rng, std::size_t max_limbs) {
  const std::size_t bytes = (1 + rng.uniform(max_limbs)) * 4;
  std::vector<std::uint8_t> buf(bytes);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  return BigInt::from_bytes_be(buf);
}

TEST(BigInt, ZeroProperties) {
  const BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(bigint_to_hex(zero), "0");
  EXPECT_TRUE(bigint_to_bytes(zero).empty());
}

TEST(BigInt, SmallValueRoundTrip) {
  const BigInt v(0x123456789ABCDEFULL);
  EXPECT_EQ(bigint_to_hex(v), "123456789abcdef");
  EXPECT_EQ(bigint_from_hex("123456789abcdef"), v);
  EXPECT_EQ(BigInt::from_bytes_be(bigint_to_bytes(v)), v);
}

TEST(BigInt, BytesRoundTripIgnoresLeadingZeros) {
  const std::vector<std::uint8_t> with_zeros = {0, 0, 0x12, 0x34};
  const BigInt v = BigInt::from_bytes_be(with_zeros);
  EXPECT_EQ(v, BigInt(0x1234));
  EXPECT_EQ(bigint_to_bytes(v), (std::vector<std::uint8_t>{0x12, 0x34}));
}

TEST(BigInt, ComparisonTotalOrder) {
  const BigInt a(5), b(7), c = bigint_from_hex("ffffffffffffffffff");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, BigInt(5));
  EXPECT_GE(c, b);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a = bigint_from_hex("ffffffffffffffff");
  EXPECT_EQ(bigint_to_hex(a + BigInt(1)), "10000000000000000");
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  const BigInt a = bigint_from_hex("10000000000000000");
  EXPECT_EQ(bigint_to_hex(a - BigInt(1)), "ffffffffffffffff");
}

TEST(BigInt, SubtractionUnderflowThrows) {
  EXPECT_THROW((void)(BigInt(1) - BigInt(2)), std::underflow_error);
}

TEST(BigInt, AddSubRoundTripRandom) {
  Rng rng(601);
  for (int trial = 0; trial < 100; ++trial) {
    const BigInt a = random_bigint(rng, 8);
    const BigInt b = random_bigint(rng, 8);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST(BigInt, MultiplicationIdentities) {
  Rng rng(602);
  const BigInt a = random_bigint(rng, 8);
  EXPECT_TRUE((a * BigInt()).is_zero());
  EXPECT_EQ(a * BigInt(1), a);
  const BigInt b = random_bigint(rng, 8);
  EXPECT_EQ(a * b, b * a);
}

TEST(BigInt, MultiplicationKnownValue) {
  const BigInt a = bigint_from_hex("ffffffffffffffff");
  EXPECT_EQ(bigint_to_hex(a * a), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, DistributiveLaw) {
  Rng rng(603);
  for (int trial = 0; trial < 30; ++trial) {
    const BigInt a = random_bigint(rng, 6);
    const BigInt b = random_bigint(rng, 6);
    const BigInt c = random_bigint(rng, 6);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigInt, ShiftsInverse) {
  Rng rng(604);
  for (std::size_t shift : {1u, 31u, 32u, 33u, 64u, 100u}) {
    const BigInt a = random_bigint(rng, 6);
    EXPECT_EQ((a << shift) >> shift, a) << shift;
  }
}

TEST(BigInt, ShiftLeftMultipliesByPowerOfTwo) {
  const BigInt a(3);
  EXPECT_EQ(a << 4, BigInt(48));
  EXPECT_EQ(a << 33, BigInt(3) * (BigInt(1) << 33));
}

TEST(BigInt, DivModByZeroThrows) {
  EXPECT_THROW((void)BigInt(5).divmod(BigInt()), std::domain_error);
  EXPECT_THROW((void)BigInt(5).mod_u32(0), std::domain_error);
}

TEST(BigInt, DivModEuclideanPropertyRandom) {
  // The defining property of division: a = q*b + r with 0 <= r < b.
  // Covers single-limb and multi-limb divisors (Knuth D both branches).
  Rng rng(605);
  for (int trial = 0; trial < 300; ++trial) {
    const BigInt a = random_bigint(rng, 12);
    BigInt b = random_bigint(rng, trial % 2 ? 1 : 6);
    if (b.is_zero()) b = BigInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigInt, DivModKnuthD3CornerCase) {
  // Divisor with high limb 0x80000000 and a dividend driving the qhat
  // correction path.
  const BigInt a = bigint_from_hex("7fffffff800000010000000000000000");
  const BigInt b = bigint_from_hex("800000008000000200000005");
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigInt, ModU32MatchesDivMod) {
  Rng rng(606);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_bigint(rng, 8);
    const std::uint32_t m = static_cast<std::uint32_t>(rng.uniform(1000)) + 1;
    EXPECT_EQ(BigInt(a.mod_u32(m)), a % BigInt(m));
  }
}

TEST(BigInt, ModExpSmallKnownValues) {
  // 3^4 mod 5 = 1; 2^10 mod 1000 = 24.
  EXPECT_EQ(BigInt::modexp(BigInt(3), BigInt(4), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::modexp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
}

TEST(BigInt, ModExpFermatLittleTheorem) {
  // a^(p-1) ≡ 1 mod p for prime p and gcd(a,p)=1.
  const BigInt p = bigint_from_hex("fffffffb");  // 4294967291, prime
  Rng rng(607);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt a = random_bigint(rng, 4) % p;
    if (a.is_zero()) a = BigInt(2);
    EXPECT_EQ(BigInt::modexp(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigInt, ModExpZeroExponent) {
  EXPECT_EQ(BigInt::modexp(BigInt(12345), BigInt(), BigInt(7)), BigInt(1));
}

TEST(BigInt, ModInverseProperty) {
  const BigInt m = bigint_from_hex("fffffffb");  // prime modulus
  Rng rng(609);
  for (int trial = 0; trial < 30; ++trial) {
    BigInt a = random_bigint(rng, 3) % m;
    if (a.is_zero()) continue;
    const auto inv = BigInt::mod_inverse(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ((a * *inv) % m, BigInt(1));
  }
}

TEST(BigInt, ModInverseNonCoprimeFails) {
  EXPECT_FALSE(BigInt::mod_inverse(BigInt(6), BigInt(9)).has_value());
  EXPECT_FALSE(BigInt::mod_inverse(BigInt(0), BigInt(7)).has_value());
}

TEST(BigInt, ModInverse65537Style) {
  // The exact shape rsa_generate uses: inverse of e modulo phi.
  const BigInt e(65537);
  const BigInt phi = bigint_from_hex(
      "3b4a51b7280a17a0d2b337ef44f6f4d8b4b0c7cbd234580f0dcd1f1b7260");
  const auto d = BigInt::mod_inverse(e, phi);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ((e * *d) % phi, BigInt(1));
}

TEST(BigInt, BitAccess) {
  const BigInt v = bigint_from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

// Differential testing against native 128-bit arithmetic: for operands that
// fit in 64 bits, every BigInt operation must agree with the hardware.
TEST(BigInt, DifferentialAgainstNative128) {
  Rng rng(611);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64() | 1;  // nonzero divisor
    const BigInt ba(a), bb(b);

    const __uint128_t sum = static_cast<__uint128_t>(a) + b;
    EXPECT_EQ(ba + bb, (BigInt(static_cast<std::uint64_t>(sum >> 64)) << 64) +
                           BigInt(static_cast<std::uint64_t>(sum)));
    const __uint128_t prod = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(ba * bb, (BigInt(static_cast<std::uint64_t>(prod >> 64)) << 64) +
                           BigInt(static_cast<std::uint64_t>(prod)));
    const auto [q, r] = ba.divmod(bb);
    EXPECT_EQ(q, BigInt(a / b));
    EXPECT_EQ(r, BigInt(a % b));
    if (a >= b) {
      EXPECT_EQ(ba - bb, BigInt(a - b));
    }
    EXPECT_EQ(ba.compare(bb) < 0, a < b);
  }
}

TEST(BigInt, DifferentialShifts) {
  Rng rng(612);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.next_u64();
    const std::size_t s = rng.uniform(63) + 1;
    EXPECT_EQ(BigInt(a) >> s, BigInt(a >> s));
    const __uint128_t shifted = static_cast<__uint128_t>(a) << s;
    EXPECT_EQ(BigInt(a) << s,
              (BigInt(static_cast<std::uint64_t>(shifted >> 64)) << 64) +
                  BigInt(static_cast<std::uint64_t>(shifted)));
  }
}

TEST(BigInt, DifferentialModexp) {
  Rng rng(613);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t base = rng.uniform(1 << 20);
    const std::uint64_t exp = rng.uniform(32);
    const std::uint64_t mod = rng.uniform(1 << 20) + 2;
    __uint128_t expected = 1;
    for (std::uint64_t i = 0; i < exp; ++i) {
      expected = expected * base % mod;
    }
    EXPECT_EQ(BigInt::modexp(BigInt(base), BigInt(exp), BigInt(mod)),
              BigInt(static_cast<std::uint64_t>(expected)));
  }
}

TEST(BigInt, RandomBelowBound) {
  Rng rng(610);
  const BigInt bound = bigint_from_hex("1000000000000001");
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt r =
        BigInt::random_below(bound, [&](std::span<std::uint8_t> buf) {
          for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
        });
    EXPECT_LT(r, bound);
  }
}

TEST(BigInt, DivModKnuthAddBackWith64BitLimbs) {
  // The 64-bit-limb image of the corner case above: its first quotient
  // estimate survives the two-limb test and is corrected by adding v back.
  const BigInt a = bigint_from_hex(
      "7fffffffffffffff800000000000000100000000000000000000000000000000");
  const BigInt b = bigint_from_hex(
      "800000000000000080000000000000020000000000000005");
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigInt, ToBytesLeftPadsToTheGivenWidth) {
  std::vector<std::uint8_t> out(5, 0xEE);
  BigInt(0x1234).to_bytes_be(out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 0, 0, 0x12, 0x34}));
  BigInt().to_bytes_be(out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(5, 0));
}

// --- Montgomery exponentiation -----------------------------------------------

/// A random odd value of exactly `bits` bits.
BigInt random_odd(Rng& rng, std::size_t bits) {
  std::vector<std::uint8_t> buf((bits + 7) / 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::size_t top = (bits - 1) % 8;
  buf[0] &= static_cast<std::uint8_t>((2u << top) - 1);
  buf[0] |= static_cast<std::uint8_t>(1u << top);
  buf.back() |= 1;
  return BigInt::from_bytes_be(buf);
}

TEST(BigInt, MontgomeryModexpMatchesReferenceOnRandomOddModuli) {
  Rng rng(611);
  for (std::size_t bits : {64u, 65u, 127u, 128u, 256u, 511u, 768u, 1024u,
                           1536u, 2048u}) {
    SCOPED_TRACE(::testing::Message() << "modulus bits=" << bits);
    const BigInt m = random_odd(rng, bits);
    const std::size_t trials = bits <= 256 ? 8 : 2;
    // Past 1024 bits the reference multiplies by double-and-add, so its
    // exponents stay short.
    const std::size_t max_exponent_bits = bits <= 1024 ? bits : 160;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const BigInt base = random_odd(rng, bits) % m;
      const std::size_t exponent_bits =
          trial % 2 ? max_exponent_bits : 1 + rng.uniform(max_exponent_bits);
      const BigInt exponent = random_odd(rng, exponent_bits);
      EXPECT_EQ(BigInt::modexp(base, exponent, m),
                reference_modexp(base, exponent, m));
    }
  }
}

TEST(BigInt, MontgomeryModexpEdgeCases) {
  Rng rng(612);
  const BigInt m = random_odd(rng, 256);
  const BigInt x = random_odd(rng, 200);
  const BigInt e = random_odd(rng, 64);
  // Base at or above the modulus, including several limbs wider.
  for (const BigInt& base : {m, m + BigInt(1), m * BigInt(3) + x,
                             (m << 300) + x}) {
    EXPECT_EQ(BigInt::modexp(base, e, m), reference_modexp(base, e, m));
  }
  EXPECT_TRUE(BigInt::modexp(BigInt(), e, m).is_zero());  // base 0
  EXPECT_EQ(BigInt::modexp(x, BigInt(), m), BigInt(1));   // exponent 0
  EXPECT_EQ(BigInt::modexp(x, BigInt(1), m), x);          // exponent 1
  EXPECT_EQ(BigInt::modexp(BigInt(), BigInt(), m), BigInt(1));
  // Modulus 1: every residue is 0, x^0 included.
  EXPECT_TRUE(BigInt::modexp(x, e, BigInt(1)).is_zero());
  EXPECT_TRUE(BigInt::modexp(x, BigInt(), BigInt(1)).is_zero());
  // All-ones top limb (and all-ones modulus), where the final conditional
  // subtraction of the Montgomery product is most often taken.
  const BigInt ones = (BigInt(1) << 256) - BigInt(1);
  const BigInt top_ones = ones - (BigInt(1) << 100) * BigInt(12345);
  for (const BigInt& mod : {ones, top_ones, (BigInt(1) << 64) - BigInt(1)}) {
    for (const BigInt& base : {mod - BigInt(1), x % mod, mod - BigInt(2)}) {
      EXPECT_EQ(BigInt::modexp(base, e, mod), reference_modexp(base, e, mod));
    }
  }
}

TEST(BigInt, MontgomeryDomainRoundTripAndProduct) {
  Rng rng(613);
  for (std::size_t bits : {64u, 192u, 1024u}) {
    const BigInt m = random_odd(rng, bits);
    const Montgomery mont(m);
    const BigInt a = random_odd(rng, bits + 40) % m;
    const BigInt b = random_odd(rng, bits - 1) % m;
    EXPECT_EQ(mont.leave(mont.enter(a)), a);
    EXPECT_EQ(mont.leave(mont.mul(mont.enter(a), mont.enter(b))), (a * b) % m);
  }
}

// --- capacity ----------------------------------------------------------------
// A value past kMaxLimbs limbs must fail closed, never write past the array.
TEST(BigIntDeathTest, OperandPastCapacityFailsTheCheck) {
  const std::size_t max_bits = BigInt::kMaxLimbs * BigInt::kLimbBits;
  const BigInt top = BigInt(1) << (max_bits - 1);  // the widest value
  EXPECT_EQ(top.bit_length(), max_bits);
  EXPECT_DEATH((void)(top << 1), "IBSEC_CHECK failed");
  EXPECT_DEATH((void)(top + top), "IBSEC_CHECK failed");
  const BigInt half = BigInt(1) << (max_bits / 2);
  EXPECT_DEATH((void)(half * half), "IBSEC_CHECK failed");
  std::vector<std::uint8_t> wide(BigInt::kMaxBytes + 1, 0);
  wide[0] = 1;
  EXPECT_DEATH((void)BigInt::from_bytes_be(wide), "IBSEC_CHECK failed");
  std::vector<std::uint8_t> narrow(3);
  EXPECT_DEATH(BigInt(0x1000000).to_bytes_be(narrow), "IBSEC_CHECK failed");
}

}  // namespace
}  // namespace ibsec::crypto
