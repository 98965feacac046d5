#ifndef MINOS_FORMAT_ARCHIVE_MAILER_H_
#define MINOS_FORMAT_ARCHIVE_MAILER_H_

#include <map>
#include <string>

#include "minos/object/multimedia_object.h"
#include "minos/storage/archiver.h"
#include "minos/storage/version_store.h"
#include "minos/util/clock.h"
#include "minos/util/statusor.h"

namespace minos::format {

/// The archive / mail back end of §4: "Archived or mailed within the
/// organization multimedia objects are composed of the concatenation of
/// the descriptor file with the composition file ... when the multimedia
/// object is mailed outside the organization the object descriptor is
/// searched for pointers to information which exists in the archiver. If
/// such pointers exist, the relevant data is extracted from the archiver
/// and appended to the composition [file]."
class ArchiveMailer {
 public:
  /// `archiver`, `versions` and `clock` must outlive the mailer.
  ArchiveMailer(storage::Archiver* archiver,
                storage::VersionStore* versions, SimClock* clock)
      : archiver_(archiver), versions_(versions), clock_(clock) {}

  /// Archives a finished object: serializes it, appends the bytes to the
  /// archiver and records a new version. The object must be archived
  /// state (call MultimediaObject::Archive() first).
  StatusOr<storage::ArchiveAddress> ArchiveObject(
      const object::MultimediaObject& obj);

  /// Builds the archival bytes of `obj` with the named parts replaced by
  /// pointers into the archiver ("the object descriptor may also have
  /// pointers to other locations within the object archiver so that data
  /// duplication is avoided", §4). Parts are named as in
  /// SerializeArchived: "attributes", "text", "voice", "image:<i>".
  StatusOr<std::string> SerializeWithArchiverRefs(
      const object::MultimediaObject& obj,
      const std::map<std::string, storage::ArchiveAddress>& shared_parts);

  /// Archives bytes produced by SerializeWithArchiverRefs (or any
  /// archival bytes) and records a version.
  StatusOr<storage::ArchiveAddress> ArchiveBytes(storage::ObjectId id,
                                                 std::string_view bytes);

  /// Mail within the organization: the raw archived bytes (archiver
  /// pointers stay valid inside the organization).
  StatusOr<std::string> MailInside(storage::ObjectId id);

  /// Mail outside the organization: fetches the current version, extracts
  /// every archiver-pointed part, appends it to the composition file and
  /// rewrites the pointers. The result is fully self-contained.
  StatusOr<std::string> MailOutside(storage::ObjectId id);

  /// Resolves archiver pointers in `bytes` (the MailOutside core, exposed
  /// for objects not yet versioned). Self-contained bytes come back
  /// as they went in, moved rather than copied, once their catalog
  /// validates.
  StatusOr<std::string> ResolvePointers(std::string bytes);

  /// Fetches and decodes the current version of an object, resolving any
  /// archiver pointers on the way (the server-side read path).
  StatusOr<object::MultimediaObject> FetchObject(storage::ObjectId id);

 private:
  storage::Archiver* archiver_;
  storage::VersionStore* versions_;
  SimClock* clock_;
};

}  // namespace minos::format

#endif  // MINOS_FORMAT_ARCHIVE_MAILER_H_
