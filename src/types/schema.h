// Schema: an ordered list of typed, named columns. Tables in htapdb have an
// INT64 primary key (by convention column 0 unless specified); composite
// business keys are encoded into the INT64 by the workload layer.

#ifndef HTAP_TYPES_SCHEMA_H_
#define HTAP_TYPES_SCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace htap {

/// One column definition.
struct ColumnDef {
  std::string name;
  Type type = Type::kInt64;

  ColumnDef() = default;
  ColumnDef(std::string n, Type t) : name(std::move(n)), type(t) {}
};

/// An immutable ordered set of columns plus the primary-key column index.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> cols, int pk_index = 0)
      : cols_(std::move(cols)), pk_index_(pk_index) {}

  size_t num_columns() const { return cols_.size(); }
  const ColumnDef& column(size_t i) const { return cols_[i]; }
  const std::vector<ColumnDef>& columns() const { return cols_; }

  /// Index of the named column, or -1.
  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < cols_.size(); ++i)
      if (cols_[i].name == name) return static_cast<int>(i);
    return -1;
  }

  int pk_index() const { return pk_index_; }

  /// Validates that the schema is usable: non-empty, unique names, INT64 PK.
  Status Validate() const {
    if (cols_.empty()) return Status::InvalidArgument("schema has no columns");
    if (pk_index_ < 0 || static_cast<size_t>(pk_index_) >= cols_.size())
      return Status::InvalidArgument("pk index out of range");
    if (cols_[pk_index_].type != Type::kInt64)
      return Status::InvalidArgument("primary key must be INT64");
    for (size_t i = 0; i < cols_.size(); ++i)
      for (size_t j = i + 1; j < cols_.size(); ++j)
        if (cols_[i].name == cols_[j].name)
          return Status::InvalidArgument("duplicate column name: " +
                                         cols_[i].name);
    return Status::OK();
  }

  /// Projection of this schema onto the given column indexes.
  Schema Project(const std::vector<int>& idxs) const {
    std::vector<ColumnDef> out;
    out.reserve(idxs.size());
    for (int i : idxs) out.push_back(cols_[static_cast<size_t>(i)]);
    return Schema(std::move(out), /*pk_index=*/0);
  }

  std::string ToString() const {
    std::string s = "(";
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (i) s += ", ";
      s += cols_[i].name;
      s += " ";
      s += TypeName(cols_[i].type);
      if (static_cast<int>(i) == pk_index_) s += " PK";
    }
    s += ")";
    return s;
  }

 private:
  std::vector<ColumnDef> cols_;
  int pk_index_ = 0;
};

}  // namespace htap

#endif  // HTAP_TYPES_SCHEMA_H_
