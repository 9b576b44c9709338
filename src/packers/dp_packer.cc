#include "packers/dp_packer.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/check.h"

namespace tetri::packers {

bool
WorkNearlyEqual(double a, double b)
{
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

bool
PackValueBetter(int survivors_a, double work_a, int width_a,
                int survivors_b, double work_b, int width_b)
{
  if (survivors_a != survivors_b) return survivors_a > survivors_b;
  if (!WorkNearlyEqual(work_a, work_b)) return work_a > work_b;
  return width_a < width_b;
}

namespace {

/** Lexicographic DP value: survivors desc, work desc, width asc. */
struct Value {
  int survivors = -1;  // -1 marks unreachable states
  double work = 0.0;
  int width = 0;

  bool Reachable() const { return survivors >= 0; }

  bool BetterThan(const Value& other) const {
    return PackValueBetter(survivors, work, width, other.survivors,
                           other.work, other.width);
  }
};

}  // namespace

void
PackScratch::Reserve(int num_groups, int capacity)
{
  const std::size_t row = static_cast<std::size_t>(capacity) + 1;
  const std::size_t table =
      (static_cast<std::size_t>(num_groups) + 1) * row;
  for (int r = 0; r < 2; ++r) {
    if (survivors[r].size() < row) {
      survivors[r].resize(row);
      work[r].resize(row);
      width[r].resize(row);
    }
  }
  if (parent.size() < table) {
    parent.resize(table);
    parent_c.resize(table);
  }
}

void
PackRoundInto(const PackGroup* groups, int num_groups, int capacity,
              PackScratch* scratch, PackResult* result)
{
  TETRI_CHECK(capacity >= 0);
  TETRI_CHECK(scratch != nullptr && result != nullptr);
  TETRI_CHECK(num_groups >= 0 && (num_groups == 0 || groups != nullptr));
  const int row = capacity + 1;
  scratch->Reserve(num_groups, capacity);

  // Row 0: only the zero-width state is reachable. The update order,
  // the comparator, and the accumulation arithmetic below mirror
  // PackRoundReference exactly, so both emit bit-identical results;
  // only the storage differs (two rolling value rows plus flat parent
  // tables instead of per-call vector-of-vectors).
  {
    int* sv = scratch->survivors[0].data();
    double* wk = scratch->work[0].data();
    int* wd = scratch->width[0].data();
    for (int c = 0; c < row; ++c) {
      sv[c] = -1;
      wk[c] = 0.0;
      wd[c] = 0;
    }
    sv[0] = 0;
  }

  for (int i = 0; i < num_groups; ++i) {
    const PackGroup& group = groups[i];
    const int* cur_sv = scratch->survivors[i & 1].data();
    const double* cur_wk = scratch->work[i & 1].data();
    const int* cur_wd = scratch->width[i & 1].data();
    int* nxt_sv = scratch->survivors[(i + 1) & 1].data();
    double* nxt_wk = scratch->work[(i + 1) & 1].data();
    int* nxt_wd = scratch->width[(i + 1) & 1].data();
    int* par = scratch->parent.data() +
               static_cast<std::size_t>(i + 1) * row;
    int* par_c = scratch->parent_c.data() +
                 static_cast<std::size_t>(i + 1) * row;
    for (int c = 0; c < row; ++c) {
      nxt_sv[c] = -1;
      nxt_wk[c] = 0.0;
      nxt_wd[c] = 0;
      par[c] = -2;
      par_c[c] = -1;
    }
    const int idle_bonus = group.survives_if_idle ? 1 : 0;
    // Option `none` fills every reachable cell first, so an allocation
    // of this group must strictly beat it to take the cell: on a tie
    // the GPUs stay with the earlier groups (see PackRound).
    for (int c = 0; c < row; ++c) {
      if (cur_sv[c] < 0) continue;
      nxt_sv[c] = cur_sv[c] + idle_bonus;
      nxt_wk[c] = cur_wk[c];
      nxt_wd[c] = cur_wd[c];
      par[c] = -1;
      par_c[c] = c;
    }
    for (int c = 0; c < row; ++c) {
      if (cur_sv[c] < 0) continue;
      // Concrete allocations.
      for (int oi = 0; oi < static_cast<int>(group.options.size());
           ++oi) {
        const PackOption& opt = group.options[oi];
        TETRI_CHECK(opt.degree >= 1 && opt.steps >= 1);
        const int nc = c + opt.degree;
        if (nc > capacity) continue;
        const int cand_sv = cur_sv[c] + (opt.survives ? 1 : 0);
        const double cand_wk = cur_wk[c] + opt.work;
        const int cand_wd = cur_wd[c] + opt.degree;
        if (PackValueBetter(cand_sv, cand_wk, cand_wd, nxt_sv[nc],
                            nxt_wk[nc], nxt_wd[nc])) {
          nxt_sv[nc] = cand_sv;
          nxt_wk[nc] = cand_wk;
          nxt_wd[nc] = cand_wd;
          par[nc] = oi;
          par_c[nc] = c;
        }
      }
    }
  }

  // Pick the best final state over all capacities.
  const int* fin_sv = scratch->survivors[num_groups & 1].data();
  const double* fin_wk = scratch->work[num_groups & 1].data();
  const int* fin_wd = scratch->width[num_groups & 1].data();
  int best_c = 0;
  for (int c = 1; c < row; ++c) {
    if (fin_sv[c] >= 0 &&
        PackValueBetter(fin_sv[c], fin_wk[c], fin_wd[c], fin_sv[best_c],
                        fin_wk[best_c], fin_wd[best_c])) {
      best_c = c;
    }
  }

  result->choice.assign(num_groups, -1);
  result->running = 0;
  int c = best_c;
  for (int i = num_groups; i >= 1; --i) {
    const int* par =
        scratch->parent.data() + static_cast<std::size_t>(i) * row;
    const int* par_c =
        scratch->parent_c.data() + static_cast<std::size_t>(i) * row;
    TETRI_CHECK(par[c] >= -1);
    result->choice[i - 1] = par[c];
    c = par_c[c];
  }
  result->survivors = fin_sv[best_c];
  result->gpus_used = fin_wd[best_c];
  result->work = fin_wk[best_c];
  for (int choice : result->choice) {
    if (choice >= 0) ++result->running;
  }
}

PackResult
PackRound(const std::vector<PackGroup>& groups, int capacity,
          PackScratch* scratch)
{
  PackResult result;
  PackRoundInto(groups.data(), static_cast<int>(groups.size()), capacity,
                scratch, &result);
  return result;
}

PackResult
PackRound(const std::vector<PackGroup>& groups, int capacity)
{
  PackScratch scratch;
  return PackRound(groups, capacity, &scratch);
}

PackResult
PackRoundReference(const std::vector<PackGroup>& groups, int capacity)
{
  TETRI_CHECK(capacity >= 0);
  const int num_groups = static_cast<int>(groups.size());

  // dp[i][c]: best value after deciding groups [0, i) with total width
  // exactly <= c handled by allowing the none option everywhere and
  // scanning all c at the end. parent[i][c] = chosen option index.
  std::vector<std::vector<Value>> dp(
      num_groups + 1, std::vector<Value>(capacity + 1));
  std::vector<std::vector<int>> parent(
      num_groups + 1, std::vector<int>(capacity + 1, -2));
  std::vector<std::vector<int>> parent_c(
      num_groups + 1, std::vector<int>(capacity + 1, -1));

  dp[0][0] = Value{0, 0, 0};
  for (int i = 0; i < num_groups; ++i) {
    const PackGroup& group = groups[i];
    // Option `none` first: an allocation must strictly beat it.
    for (int c = 0; c <= capacity; ++c) {
      if (!dp[i][c].Reachable()) continue;
      dp[i + 1][c] = dp[i][c];
      dp[i + 1][c].survivors += group.survives_if_idle ? 1 : 0;
      parent[i + 1][c] = -1;
      parent_c[i + 1][c] = c;
    }
    for (int c = 0; c <= capacity; ++c) {
      if (!dp[i][c].Reachable()) continue;
      // Concrete allocations.
      for (int oi = 0; oi < static_cast<int>(group.options.size());
           ++oi) {
        const PackOption& opt = group.options[oi];
        TETRI_CHECK(opt.degree >= 1 && opt.steps >= 1);
        const int nc = c + opt.degree;
        if (nc > capacity) continue;
        Value candidate = dp[i][c];
        candidate.survivors += opt.survives ? 1 : 0;
        candidate.work += opt.work;
        candidate.width += opt.degree;
        if (candidate.BetterThan(dp[i + 1][nc])) {
          dp[i + 1][nc] = candidate;
          parent[i + 1][nc] = oi;
          parent_c[i + 1][nc] = c;
        }
      }
    }
  }

  // Pick the best final state over all capacities.
  int best_c = 0;
  for (int c = 1; c <= capacity; ++c) {
    if (dp[num_groups][c].Reachable() &&
        dp[num_groups][c].BetterThan(dp[num_groups][best_c])) {
      best_c = c;
    }
  }

  PackResult result;
  result.choice.assign(num_groups, -1);
  int c = best_c;
  for (int i = num_groups; i >= 1; --i) {
    TETRI_CHECK(parent[i][c] >= -1);
    result.choice[i - 1] = parent[i][c];
    c = parent_c[i][c];
  }
  const Value& best = dp[num_groups][best_c];
  result.survivors = best.survivors;
  result.gpus_used = best.width;
  result.work = best.work;
  for (int choice : result.choice) {
    if (choice >= 0) ++result.running;
  }
  return result;
}

PackResult
PackRoundExhaustive(const std::vector<PackGroup>& groups, int capacity)
{
  const int num_groups = static_cast<int>(groups.size());
  PackResult best;
  best.survivors = -1;
  std::vector<int> choice(num_groups, -1);

  std::function<void(int, int, int, double)> recurse =
      [&](int i, int used, int survivors, double work) {
        if (used > capacity) return;
        if (i == num_groups) {
          // Shared comparator: DP and exhaustive must agree on which
          // packings tie (epsilon on work) and how ties break.
          const bool better =
              best.survivors < 0 ||
              PackValueBetter(survivors, work, used, best.survivors,
                              best.work, best.gpus_used);
          if (better) {
            best.choice = choice;
            best.survivors = survivors;
            best.gpus_used = used;
            best.work = work;
            best.running = 0;
            for (int ch : choice) {
              if (ch >= 0) ++best.running;
            }
          }
          return;
        }
        const PackGroup& group = groups[i];
        choice[i] = -1;
        recurse(i + 1, used,
                survivors + (group.survives_if_idle ? 1 : 0), work);
        for (int oi = 0; oi < static_cast<int>(group.options.size());
             ++oi) {
          choice[i] = oi;
          recurse(i + 1, used + group.options[oi].degree,
                  survivors + (group.options[oi].survives ? 1 : 0),
                  work + group.options[oi].work);
        }
        choice[i] = -1;
      };
  recurse(0, 0, 0, 0.0);
  return best;
}

}  // namespace tetri::packers
