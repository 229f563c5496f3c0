#include "crypto/ctr_drbg.h"

#include <algorithm>
#include <cstring>

#include "common/annotations.h"

namespace ibsec::crypto {

CtrDrbg::CtrDrbg(std::span<const std::uint8_t> seed)
    : cipher_(Aes128::Block{}) {
  std::array<std::uint8_t, 32> material{};
  std::copy_n(seed.begin(), std::min<std::size_t>(seed.size(), 32),
              material.begin());
  start(material);
}

CtrDrbg::CtrDrbg(std::uint64_t seed) : cipher_(Aes128::Block{}) {
  std::array<std::uint8_t, 32> material{};
  for (int i = 0; i < 8; ++i) {
    material[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seed >> (8 * i));
    // Duplicate into the counter half so a one-word seed still fills state.
    material[static_cast<std::size_t>(16 + i)] =
        static_cast<std::uint8_t>(~seed >> (8 * i));
  }
  start(material);
}

void CtrDrbg::start(std::span<const std::uint8_t, 32> material) {
  cipher_.set_key(material.first<16>());
  std::copy_n(material.begin() + 16, 16, counter_.begin());
  update();  // decorrelate the working state from the raw seed
}

void CtrDrbg::increment_counter() {
  for (int i = 15; i >= 0; --i) {
    if (++counter_[static_cast<std::size_t>(i)] != 0) break;
  }
}

IBSEC_HOT void CtrDrbg::generate(std::span<std::uint8_t> out) {
  std::size_t produced = 0;
  for (; out.size() - produced >= 16; produced += 16) {
    increment_counter();
    cipher_.encrypt_block(counter_.data(), out.data() + produced);
  }
  if (produced < out.size()) {
    Aes128::Block block;
    increment_counter();
    cipher_.encrypt_block(counter_.data(), block.data());
    std::memcpy(out.data() + produced, block.data(), out.size() - produced);
  }
  update();
}

void CtrDrbg::update() {
  // The next two keystream blocks become the new key and counter: the
  // counter is encrypted over itself and the cipher re-keyed in place.
  Aes128::Block new_key;
  increment_counter();
  cipher_.encrypt_block(counter_.data(), new_key.data());
  increment_counter();
  cipher_.encrypt_block(counter_.data(), counter_.data());
  cipher_.set_key(new_key);
}

std::uint64_t CtrDrbg::next_u64() {
  std::array<std::uint8_t, 8> bytes{};
  generate(std::span<std::uint8_t>(bytes));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

}  // namespace ibsec::crypto
