#include "packers/packer.h"

#include "packers/progressive.h"
#include "util/check.h"

namespace tetri::packers {

namespace {

/** The DP on the seed data path: per-call nested-vector tables. */
class DpPacker final : public RoundPacker {
 public:
  std::string_view name() const override { return "dp"; }

  void Pack(const PackGroup* groups, int num_groups, int capacity,
            PackResult* result) override {
    const std::vector<PackGroup> copy(groups, groups + num_groups);
    *result = PackRoundReference(copy, capacity);
  }
};

/** The DP on the flat-arena fast path; scratch reused across calls. */
class StaircasePacker final : public RoundPacker {
 public:
  std::string_view name() const override { return "staircase"; }

  void Pack(const PackGroup* groups, int num_groups, int capacity,
            PackResult* result) override {
    PackRoundInto(groups, num_groups, capacity, &scratch_, result);
  }

 private:
  PackScratch scratch_;
};

}  // namespace

std::string_view
PackerKindName(PackerKind kind)
{
  switch (kind) {
    case PackerKind::kAuto: return "auto";
    case PackerKind::kDp: return "dp";
    case PackerKind::kStaircase: return "staircase";
    case PackerKind::kProgressive: return "progressive";
  }
  return "unknown";
}

std::optional<PackerKind>
PackerKindFromName(std::string_view name)
{
  if (name == "auto") return PackerKind::kAuto;
  if (name == "dp") return PackerKind::kDp;
  if (name == "staircase") return PackerKind::kStaircase;
  if (name == "progressive") return PackerKind::kProgressive;
  return std::nullopt;
}

std::vector<std::string_view>
RegisteredPackerNames()
{
  return {"dp", "staircase", "progressive"};
}

std::unique_ptr<RoundPacker>
MakePacker(PackerKind kind, PackerOptions options)
{
  switch (kind) {
    case PackerKind::kAuto:
    case PackerKind::kStaircase:
      return std::make_unique<StaircasePacker>();
    case PackerKind::kDp:
      return std::make_unique<DpPacker>();
    case PackerKind::kProgressive: {
      ProgressiveOptions popt;
      popt.min_utilization = options.min_utilization;
      return std::make_unique<ProgressiveFillingPacker>(popt);
    }
  }
  TETRI_CHECK_MSG(false, "unknown packer kind");
  return nullptr;
}

std::unique_ptr<RoundPacker>
MakePacker(std::string_view name, PackerOptions options)
{
  const std::optional<PackerKind> kind = PackerKindFromName(name);
  if (!kind.has_value()) return nullptr;
  return MakePacker(*kind, options);
}

}  // namespace tetri::packers
