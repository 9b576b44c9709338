#include "serving/queued_list.h"

#include <algorithm>

#include "util/check.h"

namespace tetri::serving {

namespace {

/** The queued order: earliest deadline first, ties by id. */
bool
Before(const QueuedList::Entry& a, const QueuedList::Entry& b)
{
  if (a.deadline_us != b.deadline_us) return a.deadline_us < b.deadline_us;
  return a.id < b.id;
}

}  // namespace

void
QueuedList::Insert(Request* request)
{
  const Entry entry{request->meta.deadline_us, request->meta.id, request};
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), entry, Before);
  TETRI_CHECK(pos == entries_.end() || pos->id != entry.id);
  entries_.insert(pos, entry);
}

bool
QueuedList::Erase(const Request& request)
{
  const Entry key{request.meta.deadline_us, request.meta.id, nullptr};
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), key, Before);
  if (pos == entries_.end() || pos->id != key.id) return false;
  entries_.erase(pos);
  return true;
}

}  // namespace tetri::serving
