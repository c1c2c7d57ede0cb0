#include "cake/symbol/symbol.hpp"

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace cake::symbol {

namespace {

// The interner sits on the per-event decode path of every lane at once, so
// the read side must not serialize: lookups are wait-free probes over an
// atomically published open-addressed table, and id→text resolution is an
// atomic load from a chunked directory. Only inserts take the mutex.
//
// Invariants that make the unlocked reads sound:
//  * Entries live in a deque and are never moved or destroyed, so a pointer
//    published once stays valid for the process lifetime.
//  * An entry pointer is release-stored into a table slot / chunk slot only
//    after the entry (string bytes, id) is fully constructed; readers
//    acquire-load the pointer, so they always see a complete entry.
//  * Tables are append-only (no deletes): a null slot terminates a probe
//    for the snapshot the reader loaded. A reader holding a stale table may
//    miss a freshly interned name — it then falls through to the locked
//    slow path, which rechecks against the current table.
//  * Superseded tables are retired, not freed, so a reader mid-probe during
//    a grow still walks valid memory. Doubling bounds the waste at ~2x the
//    final table size.

struct Entry {
  std::string text;
  Id id = 0;
};

constexpr std::size_t kChunkBits = 12;
constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;  // 4096 ids
constexpr std::size_t kMaxChunks = 4096;  // 16M symbols, plenty forever

struct Chunk {
  std::atomic<const Entry*> slots[kChunkSize] = {};
};

struct Table {
  explicit Table(std::size_t capacity)
      : mask(capacity - 1),
        slots(std::make_unique<std::atomic<const Entry*>[]>(capacity)) {}
  std::size_t mask;
  std::unique_ptr<std::atomic<const Entry*>[]> slots;  // value-init: null
};

std::size_t hash_of(std::string_view text) noexcept {
  return std::hash<std::string_view>{}(text);
}

const Entry* find_in(const Table& t, std::string_view text,
                     std::size_t h) noexcept {
  for (std::size_t i = h & t.mask;; i = (i + 1) & t.mask) {
    const Entry* e = t.slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return nullptr;
    if (e->text == text) return e;
  }
}

struct Interner {
  std::mutex mutex;  // writers only
  std::deque<Entry> storage;
  std::atomic<std::size_t> count{0};
  std::atomic<Table*> table{nullptr};
  std::vector<std::unique_ptr<Table>> tables;  // current + retired
  std::unique_ptr<std::atomic<Chunk*>[]> dir;

  Interner() : dir(std::make_unique<std::atomic<Chunk*>[]>(kMaxChunks)) {
    tables.push_back(std::make_unique<Table>(1024));
    table.store(tables.back().get(), std::memory_order_release);
    std::lock_guard lock{mutex};
    insert_locked("");  // id 0 == ""
  }

  // Pre: mutex held, `text` not present in the current table.
  Symbol insert_locked(std::string_view text) {
    const Id id = static_cast<Id>(storage.size());
    Entry& e = storage.emplace_back(Entry{std::string{text}, id});

    const std::size_t c = id >> kChunkBits;
    if (c >= kMaxChunks) throw std::length_error{"symbol: interner full"};
    Chunk* chunk = dir[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk;
      dir[c].store(chunk, std::memory_order_release);
    }
    chunk->slots[id & (kChunkSize - 1)].store(&e, std::memory_order_release);

    Table* t = table.load(std::memory_order_relaxed);
    if ((storage.size() * 2) > t->mask + 1) t = grow_locked();
    for (std::size_t i = hash_of(text) & t->mask;; i = (i + 1) & t->mask) {
      if (t->slots[i].load(std::memory_order_relaxed) == nullptr) {
        t->slots[i].store(&e, std::memory_order_release);
        break;
      }
    }
    count.store(storage.size(), std::memory_order_release);
    return Symbol{id, std::string_view{e.text}};
  }

  Table* grow_locked() {
    Table* old = table.load(std::memory_order_relaxed);
    auto grown = std::make_unique<Table>((old->mask + 1) * 2);
    for (const Entry& e : storage) {
      for (std::size_t i = hash_of(e.text) & grown->mask;;
           i = (i + 1) & grown->mask) {
        if (grown->slots[i].load(std::memory_order_relaxed) == nullptr) {
          grown->slots[i].store(&e, std::memory_order_relaxed);
          break;
        }
      }
    }
    Table* fresh = grown.get();
    tables.push_back(std::move(grown));  // old stays alive for readers
    table.store(fresh, std::memory_order_release);
    return fresh;
  }
};

// Never destroyed: entries must outlive every static that holds a Symbol,
// and the chunks reachable only through the interner stay reachable at exit.
Interner& table() {
  static Interner* const instance = new Interner;
  return *instance;
}

}  // namespace

Symbol intern(std::string_view text) {
  Interner& t = table();
  const std::size_t h = hash_of(text);
  if (const Entry* e =
          find_in(*t.table.load(std::memory_order_acquire), text, h)) {
    return Symbol{e->id, std::string_view{e->text}};
  }
  std::lock_guard lock{t.mutex};
  // Recheck: another thread may have interned it, or our snapshot was stale.
  if (const Entry* e =
          find_in(*t.table.load(std::memory_order_relaxed), text, h)) {
    return Symbol{e->id, std::string_view{e->text}};
  }
  return t.insert_locked(text);
}

std::string_view name(Id id) {
  Interner& t = table();
  const std::size_t c = id >> kChunkBits;
  if (c < kMaxChunks) {
    if (const Chunk* chunk = t.dir[c].load(std::memory_order_acquire)) {
      if (const Entry* e =
              chunk->slots[id & (kChunkSize - 1)].load(std::memory_order_acquire)) {
        return std::string_view{e->text};
      }
    }
  }
  throw std::out_of_range{"symbol: unknown id"};
}

std::size_t size() noexcept {
  return table().count.load(std::memory_order_acquire);
}

}  // namespace cake::symbol
