//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifier names. A Name is a cheap value type (a pointer into
/// the table) with O(1) equality, a stable uint32_t ordinal for
/// deterministic ordering and for indexing flat side tables (scope stacks,
/// prim-op tables), and the original text.
///
/// The NameTable itself is an open-addressed hash table (one contiguous
/// slot array, linear probing, cached 32-bit hashes for cheap rejects)
/// over entries whose header and character data live back-to-back in a
/// bump arena. Compared to the previous std::unordered_map-of-pointers
/// interner this does no per-name node allocation, probes cache-adjacent
/// slots, and keeps each name's header and text on the same cache line —
/// the lexer consults this table once per identifier token.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_NAMETABLE_H
#define MPC_SUPPORT_NAMETABLE_H

#include "support/Arena.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mpc {

class NameTable;

namespace detail {
/// Header of one interned name; the character data follows immediately.
struct NameEntry {
  uint32_t Length;
  uint32_t Ordinal;

  const char *chars() const {
    return reinterpret_cast<const char *>(this + 1);
  }
  std::string_view view() const {
    return std::string_view(chars(), Length);
  }
};
} // namespace detail

/// An interned string; trivially copyable, compares by identity.
class Name {
public:
  Name() : Entry(nullptr) {}

  /// The empty/invalid name.
  bool isEmpty() const { return Entry == nullptr; }
  explicit operator bool() const { return Entry != nullptr; }

  std::string_view text() const {
    if (!Entry)
      return std::string_view();
    return Entry->view();
  }
  std::string str() const { return std::string(text()); }

  /// Stable ordinal within the owning table (deterministic sort key;
  /// dense from 1, so flat tables may index by it directly).
  uint32_t ordinal() const { return Entry ? Entry->Ordinal : 0; }

  bool operator==(const Name &O) const { return Entry == O.Entry; }
  bool operator!=(const Name &O) const { return Entry != O.Entry; }
  bool operator<(const Name &O) const { return ordinal() < O.ordinal(); }

private:
  friend class NameTable;
  friend struct NameHash;
  explicit Name(const detail::NameEntry *E) : Entry(E) {}
  const detail::NameEntry *Entry;
};

struct NameHash {
  size_t operator()(const Name &N) const {
    return std::hash<const void *>()(N.Entry);
  }
};

/// Owns interned strings; all Names it returns stay valid for its lifetime.
class NameTable {
public:
  NameTable() = default;
  NameTable(const NameTable &) = delete;
  NameTable &operator=(const NameTable &) = delete;

  /// Interns \p Text, returning the canonical Name for it.
  Name intern(std::string_view Text);

  /// Interns "<Base>$<N>" — handy for synthesizing fresh names.
  Name internSuffixed(std::string_view Base, uint64_t N);

  /// Number of distinct names interned.
  size_t size() const { return Num; }

  /// Bytes of name storage (entry headers plus character data).
  uint64_t poolBytes() const { return Storage.bytesUsed(); }

private:
  struct Slot {
    const detail::NameEntry *Entry = nullptr;
    uint32_t Hash = 0;
  };

  static uint32_t hashText(std::string_view Text);
  void grow();

  Arena Storage;
  std::vector<Slot> Slots;
  size_t Num = 0;
  uint32_t NextOrdinal = 1;
};

} // namespace mpc

#endif // MPC_SUPPORT_NAMETABLE_H
