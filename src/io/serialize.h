#ifndef CAFE_IO_SERIALIZE_H_
#define CAFE_IO_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace cafe {
namespace io {

/// 64-bit FNV-1a over a byte range. Checkpoint files append this over the
/// whole payload so bit rot / truncation is detected before any state is
/// installed into a live store.
uint64_t Fingerprint(const void* data, size_t size);

/// Append-only binary encoder. Everything is little-endian fixed-width (the
/// only platforms this library targets); floats are written by bit pattern,
/// so a round trip is bit-identical including NaN payloads and -0.0f.
///
/// The format is driven by the reader: every ReadX must mirror the WriteX
/// sequence exactly. Vectors are length-prefixed so readers can validate
/// sizes against the live object before copying anything.
class Writer {
 public:
  void WriteBytes(const void* data, size_t size) {
    const char* p = static_cast<const char*>(data);
    buffer_.append(p, size);
  }

  void WriteU8(uint8_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
  void WriteF64(double v) { WriteBytes(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteBytes(s.data(), s.size());
  }

  /// Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WriteVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable<T>::value,
                  "WriteVec needs a POD element type");
    WriteU64(v.size());
    WriteBytes(v.data(), v.size() * sizeof(T));
  }

  const std::string& buffer() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

  /// Moves the encoded bytes out (the writer is empty afterwards). The
  /// online snapshot path uses this to hand the trainer's serialize buffer
  /// to the rebuild thread without a copy.
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Sequential decoder over an owned byte buffer (or a borrowed view).
/// Every accessor checks bounds and returns OutOfRange on truncation
/// instead of reading past the end, so a corrupted file fails with a clean
/// Status.
class Reader {
 public:
  explicit Reader(std::string bytes)
      : owned_(std::move(bytes)), bytes_(&owned_) {}

  /// Non-owning view: `*borrowed` must outlive the reader and stay
  /// unmodified while it reads. The snapshot publish path uses this to
  /// replay ONE delta payload into both ping-pong buffers without copying
  /// the bytes per application.
  explicit Reader(const std::string* borrowed) : bytes_(borrowed) {}

  // Not copyable or movable: an owning reader's cursor points into its own
  // owned_ buffer, so the compiler-generated copies would leave the new
  // object reading the OLD object's storage. Readers are consumed in place.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  Status ReadBytes(void* out, size_t size) {
    // All bounds checks in this class compare against the REMAINING byte
    // count, never `pos_ + size` — a crafted length prefix near 2^64 would
    // wrap that sum and defeat the check.
    if (size > remaining()) {
      return Status::OutOfRange("serialized data truncated");
    }
    // Empty payloads may arrive with out == nullptr (an empty vector's
    // data()), and memcpy from or to nullptr is undefined even for size 0.
    if (size == 0) return Status::OK();
    std::memcpy(out, bytes_->data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  Status ReadU8(uint8_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadI32(int32_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadI64(int64_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadF32(float* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadF64(double* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadBool(bool* v) {
    uint8_t byte = 0;
    CAFE_RETURN_IF_ERROR(ReadU8(&byte));
    *v = byte != 0;
    return Status::OK();
  }

  Status ReadString(std::string* s) {
    uint64_t size = 0;
    CAFE_RETURN_IF_ERROR(ReadU64(&size));
    if (size > remaining()) {
      return Status::OutOfRange("serialized string truncated");
    }
    s->assign(bytes_->data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  template <typename T>
  Status ReadVec(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable<T>::value,
                  "ReadVec needs a POD element type");
    uint64_t count = 0;
    CAFE_RETURN_IF_ERROR(ReadU64(&count));
    // Divide instead of multiplying: count * sizeof(T) could wrap and both
    // slip past the bound and feed resize() an absurd length.
    if (count > remaining() / sizeof(T)) {
      return Status::OutOfRange("serialized vector truncated");
    }
    v->resize(count);
    return ReadBytes(v->data(), count * sizeof(T));
  }

  /// Like ReadVec, but fails unless the stored length equals `expected` —
  /// the shape guard every store uses so a checkpoint from a differently
  /// sized store cannot silently resize live tables.
  template <typename T>
  Status ReadVecExpected(std::vector<T>* v, size_t expected,
                         const char* what) {
    uint64_t count = 0;
    CAFE_RETURN_IF_ERROR(ReadU64(&count));
    if (count != expected) {
      return Status::FailedPrecondition(
          std::string("checkpoint shape mismatch for ") + what);
    }
    if (count > remaining() / sizeof(T)) {
      return Status::OutOfRange("serialized vector truncated");
    }
    v->resize(count);
    return ReadBytes(v->data(), count * sizeof(T));
  }

  /// Advances past `size` bytes without reading them (section skipping).
  Status Skip(size_t size) {
    if (size > remaining()) {
      return Status::OutOfRange("serialized data truncated");
    }
    pos_ += size;
    return Status::OK();
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return bytes_->size() - pos_; }
  const std::string& bytes() const { return *bytes_; }

 private:
  std::string owned_;           // empty when borrowing
  const std::string* bytes_;    // -> owned_, or the borrowed buffer
  size_t pos_ = 0;
};

/// Writes `bytes` to `path` through a same-directory temp file + rename, so
/// a crash mid-write can never leave a half-written checkpoint at `path`.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole file at `path`. NotFound / Internal on failure.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Creates `path` (one level; the parent must exist). OK if it already
/// exists as a directory.
Status EnsureDirectory(const std::string& path);

/// Lists the plain-file names (not paths, no subdirectories) in `path`,
/// unsorted. NotFound if the directory cannot be opened.
StatusOr<std::vector<std::string>> ListDirectory(const std::string& path);

/// Removes the file at `path`. OK if it does not exist.
Status RemoveFile(const std::string& path);

}  // namespace io
}  // namespace cafe

#endif  // CAFE_IO_SERIALIZE_H_
