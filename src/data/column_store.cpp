#include "data/column_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "data/format.hpp"
#include "util/error.hpp"

namespace pac::data {

// ---- ProfileBuilder ----

ProfileBuilder::ProfileBuilder(const Attribute& attr)
    : real_(attr.kind == AttributeKind::kReal) {
  if (!real_) counts_.assign(static_cast<std::size_t>(attr.num_values), 0.0);
}

void ProfileBuilder::add_real(double v) noexcept {
  if (is_missing_real(v)) {
    ++missing_;
    return;
  }
  // West's weighted update with w = 1, matching WeightedMoments::add so the
  // cached stats are bit-identical to a direct column scan.
  weight_ += 1.0;
  const double delta = v - mean_;
  mean_ += delta * (1.0 / weight_);
  m2_ += delta * (v - mean_);
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  ++known_;
}

void ProfileBuilder::add_discrete(std::int32_t v) noexcept {
  if (v == kMissingDiscrete) {
    ++missing_;
    return;
  }
  counts_[static_cast<std::size_t>(v)] += 1.0;
  ++known_;
}

ColumnProfile ProfileBuilder::finish() const {
  ColumnProfile p;
  p.known = known_;
  p.missing = missing_;
  if (real_) {
    p.stats.known = known_;
    if (known_ == 0) {
      p.stats.min = p.stats.max = 0.0;
    } else {
      p.stats.mean = mean_;
      p.stats.variance = weight_ > 0.0 ? m2_ / weight_ : 0.0;
      p.stats.min = min_;
      p.stats.max = max_;
    }
  } else {
    p.counts = counts_;
  }
  return p;
}

// ---- ResidentStore ----

ResidentStore::ResidentStore(Schema schema, std::size_t num_items)
    : ColumnStore(std::move(schema), num_items) {
  columns_.reserve(schema_.size());
  for (const Attribute& a : schema_.attributes()) {
    if (a.kind == AttributeKind::kReal) {
      columns_.emplace_back(std::vector<double>(num_items, missing_real()));
    } else {
      columns_.emplace_back(
          std::vector<std::int32_t>(num_items, kMissingDiscrete));
    }
  }
  profiles_.resize(schema_.size());
}

ColumnBlockView<double> ResidentStore::real_block(std::size_t attr,
                                                  ItemRange range) const {
  const auto& col = std::get<std::vector<double>>(columns_[attr]);
  return ColumnBlockView<double>(col.data() + range.begin, range.size());
}

ColumnBlockView<std::int32_t> ResidentStore::discrete_block(
    std::size_t attr, ItemRange range) const {
  const auto& col = std::get<std::vector<std::int32_t>>(columns_[attr]);
  return ColumnBlockView<std::int32_t>(col.data() + range.begin, range.size());
}

double ResidentStore::real_value(std::size_t item, std::size_t attr) const {
  return std::get<std::vector<double>>(columns_[attr])[item];
}

std::int32_t ResidentStore::discrete_value(std::size_t item,
                                           std::size_t attr) const {
  return std::get<std::vector<std::int32_t>>(columns_[attr])[item];
}

void ResidentStore::set_real(std::size_t item, std::size_t attr,
                             double value) {
  std::get<std::vector<double>>(columns_[attr])[item] = value;
  profiles_[attr].reset();
}

void ResidentStore::set_discrete(std::size_t item, std::size_t attr,
                                 std::int32_t value) {
  std::get<std::vector<std::int32_t>>(columns_[attr])[item] = value;
  profiles_[attr].reset();
}

void ResidentStore::set_missing(std::size_t item, std::size_t attr) {
  if (schema_.at(attr).kind == AttributeKind::kReal) {
    std::get<std::vector<double>>(columns_[attr])[item] = missing_real();
  } else {
    std::get<std::vector<std::int32_t>>(columns_[attr])[item] =
        kMissingDiscrete;
  }
  profiles_[attr].reset();
}

std::span<double> ResidentStore::mutable_real(std::size_t attr) {
  profiles_[attr].reset();
  return std::get<std::vector<double>>(columns_[attr]);
}

std::span<std::int32_t> ResidentStore::mutable_discrete(std::size_t attr) {
  profiles_[attr].reset();
  return std::get<std::vector<std::int32_t>>(columns_[attr]);
}

ColumnProfile ResidentStore::compute_profile(std::size_t attr) const {
  ProfileBuilder builder(schema_.at(attr));
  if (schema_.at(attr).kind == AttributeKind::kReal) {
    for (const double v : std::get<std::vector<double>>(columns_[attr]))
      builder.add_real(v);
  } else {
    for (const std::int32_t v :
         std::get<std::vector<std::int32_t>>(columns_[attr]))
      builder.add_discrete(v);
  }
  return builder.finish();
}

const ColumnProfile& ResidentStore::profile(std::size_t attr) const {
  std::lock_guard<std::mutex> lock(profile_mutex_);
  if (!profiles_[attr])
    profiles_[attr] = std::make_unique<ColumnProfile>(compute_profile(attr));
  return *profiles_[attr];
}

void ResidentStore::adopt_profiles(std::vector<ColumnProfile> profiles) {
  PAC_REQUIRE(profiles.size() == schema_.size());
  std::lock_guard<std::mutex> lock(profile_mutex_);
  for (std::size_t a = 0; a < profiles.size(); ++a)
    profiles_[a] = std::make_unique<ColumnProfile>(std::move(profiles[a]));
}

std::shared_ptr<ColumnStore> ResidentStore::clone() {
  auto copy = std::make_shared<ResidentStore>(schema_, num_items_);
  copy->columns_ = columns_;
  std::lock_guard<std::mutex> lock(profile_mutex_);
  for (std::size_t a = 0; a < profiles_.size(); ++a)
    if (profiles_[a])
      copy->profiles_[a] = std::make_unique<ColumnProfile>(*profiles_[a]);
  return copy;
}

// ---- ChunkedStore ----

namespace {

std::size_t env_budget_bytes() {
  const char* env = std::getenv("PAC_DATA_BUDGET_MB");
  if (env && *env) {
    char* end = nullptr;
    errno = 0;
    const long long mb = std::strtoll(env, &end, 10);
    const bool integer = end != env && *end == '\0';
    if (!integer || mb <= 0) {
      std::ostringstream os;
      os << "PAC_DATA_BUDGET_MB must be a positive integer, got '" << env
         << "'";
      throw BudgetError(os.str(), env);
    }
    if (errno == ERANGE) {
      std::ostringstream os;
      os << "PAC_DATA_BUDGET_MB='" << env
         << "' MiB overflows a byte count";
      throw BudgetError(os.str(), env);
    }
    return budget_bytes_from_mb(mb);
  }
  return std::size_t{256} << 20;
}

/// Full pread loop; throws FormatError on short reads or I/O errors.
void pread_exact(int fd, void* buf, std::size_t bytes, std::uint64_t offset,
                 const std::string& path, std::ptrdiff_t chunk,
                 std::ptrdiff_t column, const std::string& col_name) {
  char* dst = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::pread(fd, dst + done, bytes - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      std::ostringstream os;
      os << "pread failed on '" << path << "' (chunk " << chunk << ", column "
         << column << " '" << col_name << "'): " << std::strerror(errno);
      throw format::FormatError(os.str(), chunk, column);
    }
    if (n == 0) {
      std::ostringstream os;
      os << "'" << path << "' truncated: chunk " << chunk << ", column "
         << column << " '" << col_name << "' ends before its " << bytes
         << " bytes";
      throw format::FormatError(os.str(), chunk, column);
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::size_t budget_bytes_from_mb(std::int64_t mb) {
  if (mb < 0) {
    std::ostringstream os;
    os << "chunk-cache budget of " << mb << " MiB is negative";
    throw BudgetError(os.str(), std::to_string(mb));
  }
  const auto umb = static_cast<std::uint64_t>(mb);
  if (umb > (std::numeric_limits<std::size_t>::max() >> 20)) {
    std::ostringstream os;
    os << "chunk-cache budget of " << mb << " MiB overflows a byte count";
    throw BudgetError(os.str(), std::to_string(mb));
  }
  return static_cast<std::size_t>(umb) << 20;
}

std::shared_ptr<ChunkedStore> ChunkedStore::open(const std::string& path,
                                                 std::size_t budget_bytes) {
  auto layout = std::make_unique<format::PacbLayout>(format::read_layout(path));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PAC_REQUIRE_MSG(fd >= 0, "cannot open '" << path << "': "
                                           << std::strerror(errno));
  if (budget_bytes == 0) budget_bytes = env_budget_bytes();
  return std::shared_ptr<ChunkedStore>(
      new ChunkedStore(path, fd, std::move(layout), budget_bytes));
}

ChunkedStore::ChunkedStore(std::string path, int fd,
                           std::unique_ptr<format::PacbLayout> layout,
                           std::size_t budget_bytes)
    : ColumnStore(layout->schema,
                  static_cast<std::size_t>(layout->num_items)),
      path_(std::move(path)),
      fd_(fd),
      layout_(std::move(layout)),
      budget_bytes_(budget_bytes) {}

ChunkedStore::~ChunkedStore() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t ChunkedStore::chunk_rows() const noexcept {
  return layout_->chunk_rows;
}

std::size_t ChunkedStore::num_chunks() const noexcept {
  return layout_->num_chunks();
}

std::size_t ChunkedStore::chunk_loads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loads_;
}

std::size_t ChunkedStore::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cached_bytes_;
}

std::shared_ptr<const void> ChunkedStore::read_chunk(std::size_t attr,
                                                    std::size_t c) const {
  const Attribute& a = schema_.at(attr);
  const std::size_t rows = layout_->rows_in_chunk(c);
  const std::size_t bytes = rows * layout_->elem_bytes[attr];
  const auto chunk_no = static_cast<std::ptrdiff_t>(c);
  const auto column_no = static_cast<std::ptrdiff_t>(attr);

  // The pin aliases the typed start of the buffer, so pin.get() is the
  // chunk's first value and the pin owns the vector.
  std::shared_ptr<const void> pin;
  if (a.kind == AttributeKind::kReal) {
    auto buf = std::make_shared<std::vector<double>>(rows);
    pread_exact(fd_, buf->data(), bytes, layout_->column_data_offset(c, attr),
                path_, chunk_no, column_no, a.name);
    pin = std::shared_ptr<const void>(buf, buf->data());
  } else {
    auto buf = std::make_shared<std::vector<std::int32_t>>(rows);
    pread_exact(fd_, buf->data(), bytes, layout_->column_data_offset(c, attr),
                path_, chunk_no, column_no, a.name);
    for (const std::int32_t v : *buf) {
      if (v != kMissingDiscrete && (v < 0 || v >= a.num_values)) {
        std::ostringstream os;
        os << "'" << path_ << "' chunk " << c << ", column " << attr << " '"
           << a.name << "': discrete value " << v << " out of range [0, "
           << a.num_values << ")";
        throw format::FormatError(os.str(), chunk_no, column_no);
      }
    }
    pin = std::shared_ptr<const void>(buf, buf->data());
  }

  std::uint32_t stored = 0;
  pread_exact(fd_, &stored, sizeof(stored), layout_->column_crc_offset(c, attr),
              path_, chunk_no, column_no, a.name);
  const std::uint32_t actual = format::crc32(pin.get(), bytes);
  if (stored != actual) {
    std::ostringstream os;
    os << "'" << path_ << "' checksum mismatch in chunk " << c << ", column "
       << attr << " '" << a.name << "' (stored " << stored << ", computed "
       << actual << ")";
    throw format::FormatError(os.str(), chunk_no, column_no);
  }
  return pin;
}

std::shared_ptr<const void> ChunkedStore::chunk(std::size_t attr,
                                               std::size_t c) const {
  const std::size_t key = attr * layout_->num_chunks() + c;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto hit = cache_.find(key);
    if (hit != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, hit->second.lru_it);
      return hit->second.pin;
    }
  }

  // Miss: read, range-check and verify without the lock, so ranks and pool
  // threads loading other chunks never wait on this one's I/O and CRC.  Two
  // threads missing the same chunk may both read it; the first insert wins
  // and the other's verified copy is dropped.
  std::shared_ptr<const void> pin = read_chunk(attr, c);
  const std::size_t bytes =
      layout_->rows_in_chunk(c) * layout_->elem_bytes[attr];

  std::lock_guard<std::mutex> lock(mutex_);
  ++loads_;
  const auto raced = cache_.find(key);
  if (raced != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, raced->second.lru_it);
    return raced->second.pin;
  }
  lru_.push_front(key);
  cache_.emplace(key, Chunk{pin, bytes, lru_.begin()});
  cached_bytes_ += bytes;

  // Evict cold chunks down to the budget, never the one just loaded.
  while (cached_bytes_ > budget_bytes_ && cache_.size() > 1) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    const auto vit = cache_.find(victim);
    cached_bytes_ -= vit->second.bytes;
    cache_.erase(vit);  // views still pinning the buffer keep it alive
  }
  return pin;
}

template <class T>
ColumnBlockView<T> ChunkedStore::block(std::size_t attr,
                                       ItemRange range) const {
  if (range.empty()) return ColumnBlockView<T>();
  const std::size_t rows = layout_->chunk_rows;
  const std::size_t c0 = range.begin / rows;
  const std::size_t c1 = (range.end - 1) / rows;
  if (c0 == c1) {
    std::shared_ptr<const void> pin = chunk(attr, c0);
    const T* base = static_cast<const T*>(pin.get());
    return ColumnBlockView<T>(base + (range.begin - c0 * rows), range.size(),
                              std::move(pin));
  }
  // The range straddles chunks: assemble into a transient pinned buffer.
  auto buf = std::make_shared<std::vector<T>>(range.size());
  for (std::size_t c = c0; c <= c1; ++c) {
    const std::shared_ptr<const void> pin = chunk(attr, c);
    const T* base = static_cast<const T*>(pin.get());
    const std::size_t chunk_begin = c * rows;
    const std::size_t lo = std::max(range.begin, chunk_begin);
    const std::size_t hi =
        std::min(range.end, chunk_begin + layout_->rows_in_chunk(c));
    std::copy(base + (lo - chunk_begin), base + (hi - chunk_begin),
              buf->data() + (lo - range.begin));
  }
  const T* data = buf->data();
  return ColumnBlockView<T>(data, range.size(), std::move(buf));
}

ColumnBlockView<double> ChunkedStore::real_block(std::size_t attr,
                                                 ItemRange range) const {
  return block<double>(attr, range);
}

ColumnBlockView<std::int32_t> ChunkedStore::discrete_block(
    std::size_t attr, ItemRange range) const {
  return block<std::int32_t>(attr, range);
}

double ChunkedStore::real_value(std::size_t item, std::size_t attr) const {
  return block<double>(attr, ItemRange{item, item + 1})[0];
}

std::int32_t ChunkedStore::discrete_value(std::size_t item,
                                          std::size_t attr) const {
  return block<std::int32_t>(attr, ItemRange{item, item + 1})[0];
}

const ColumnProfile& ChunkedStore::profile(std::size_t attr) const {
  return layout_->profiles[attr];
}

std::shared_ptr<ColumnStore> ChunkedStore::clone() {
  // The file and cache are immutable from the Dataset API's point of view,
  // so copies share one store (and one budgeted cache).
  return shared_from_this();
}

}  // namespace pac::data
