#ifndef MINOS_OBJECT_MULTIMEDIA_OBJECT_H_
#define MINOS_OBJECT_MULTIMEDIA_OBJECT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "minos/image/image.h"
#include "minos/object/descriptor.h"
#include "minos/storage/version_store.h"
#include "minos/text/document.h"
#include "minos/util/statusor.h"
#include "minos/voice/voice_document.h"

namespace minos::object {

/// Lifecycle state: "Multimedia objects may be in an editing state or in
/// an archived state. Objects in an editing state are allowed to be
/// modified. Objects in the archived state are not allowed to be
/// modified." (§2)
enum class ObjectState : uint8_t { kEditing = 0, kArchived = 1 };

/// The unit of information in MINOS (§2): attributes, an object text part,
/// an object voice part, an object image part, a unique identifier, and a
/// descriptor encoding how the parts interrelate. All presentation and
/// browsing in the core library operates on archived MultimediaObjects.
class MultimediaObject {
 public:
  explicit MultimediaObject(storage::ObjectId id) : id_(id) {}

  storage::ObjectId id() const { return id_; }
  ObjectState state() const { return state_; }

  /// Attributes -----------------------------------------------------------

  /// Sets an attribute (FailedPrecondition once archived).
  Status SetAttribute(std::string name, std::string value);
  StatusOr<std::string> GetAttribute(std::string_view name) const;
  const std::map<std::string, std::string, std::less<>>& attributes() const {
    return attributes_;
  }

  /// Parts ----------------------------------------------------------------

  /// Installs the object text part (FailedPrecondition once archived).
  Status SetTextPart(text::Document doc);
  /// Installs the object voice part (FailedPrecondition once archived).
  Status SetVoicePart(voice::VoiceDocument doc);
  /// Appends an image; returns its index within the image part.
  StatusOr<uint32_t> AddImage(image::Image img);

  bool has_text() const { return text_.has_value(); }
  bool has_voice() const { return voice_.has_value(); }
  const text::Document& text_part() const { return *text_; }
  const voice::VoiceDocument& voice_part() const { return *voice_; }

  /// The text / voice part to extend in place; null when the part is
  /// absent or the object is archived.
  text::Document* mutable_text_part() { return Editable(text_); }
  voice::VoiceDocument* mutable_voice_part() { return Editable(voice_); }
  const std::vector<image::Image>& images() const { return images_; }

  /// Descriptor -----------------------------------------------------------

  /// Mutable while editing; the presentation manager reads the const one.
  ObjectDescriptor& descriptor() { return descriptor_; }
  const ObjectDescriptor& descriptor() const { return descriptor_; }

  /// State transition -------------------------------------------------------

  /// Reopens a decoded archived object as the editing-state start of
  /// its successor version, moving every part and the descriptor (no
  /// component is copied). The archived image itself stays immutable
  /// (§2): the successor archives as a new version.
  MultimediaObject TakeForEdit() &&;

  /// Validates the descriptor against the parts (image indices, anchor
  /// bounds, page ranges) and freezes the object. InvalidArgument with a
  /// specific message on the first inconsistency found.
  Status Archive();

  /// Archival format --------------------------------------------------------

  /// Serializes the archived object: descriptor concatenated with the
  /// composition file (§4). FailedPrecondition unless archived.
  StatusOr<std::string> SerializeArchived() const;

  /// Reconstructs an archived object from SerializeArchived() bytes.
  static StatusOr<MultimediaObject> DeserializeArchived(
      storage::ObjectId id, std::string_view bytes);

  /// Parts dropped by a lenient decode, by name ("voice", "attributes").
  struct PartSalvageReport {
    std::vector<std::string> dropped_parts;
    bool degraded() const { return !dropped_parts.empty(); }
  };

  /// Best-effort decode for the degraded-presentation path: a voice or
  /// attribute part that fails its checksum (or otherwise fails to
  /// decode) is dropped and recorded in `report` instead of failing the
  /// whole object. Corruption of the descriptor, the text part, or an
  /// image part is still fatal — those have no presentable fallback.
  static StatusOr<MultimediaObject> DeserializeArchivedLenient(
      storage::ObjectId id, std::string_view bytes,
      PartSalvageReport* report);

 private:
  static StatusOr<MultimediaObject> DeserializeArchivedImpl(
      storage::ObjectId id, std::string_view bytes,
      PartSalvageReport* report);
  Status CheckEditable() const;
  template <typename Part>
  Part* Editable(std::optional<Part>& part) {
    return state_ == ObjectState::kEditing && part ? &*part : nullptr;
  }
  Status ValidateDescriptor() const;

  storage::ObjectId id_;
  ObjectState state_ = ObjectState::kEditing;
  std::map<std::string, std::string, std::less<>> attributes_;
  std::optional<text::Document> text_;
  std::optional<voice::VoiceDocument> voice_;
  std::vector<image::Image> images_;
  ObjectDescriptor descriptor_;
};

}  // namespace minos::object

#endif  // MINOS_OBJECT_MULTIMEDIA_OBJECT_H_
