#ifndef OLITE_OWL_ONTOLOGY_H_
#define OLITE_OWL_ONTOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dllite/vocabulary.h"
#include "owl/expr.h"

namespace olite::owl {

/// Kind of an OWL TBox/RBox axiom supported by the library.
enum class AxiomKind : uint8_t {
  kSubClassOf,            ///< SubClassOf(C1 C2)
  kEquivalentClasses,     ///< EquivalentClasses(C1 … Cn)
  kDisjointClasses,       ///< DisjointClasses(C1 … Cn)
  kSubObjectPropertyOf,   ///< SubObjectPropertyOf(R1 R2)
  kInverseProperties,     ///< InverseObjectProperties(P Q): Q ≡ P⁻
  kObjectPropertyDomain,  ///< ObjectPropertyDomain(R C): ∃R ⊑ C
  kObjectPropertyRange,   ///< ObjectPropertyRange(R C): ∃R⁻ ⊑ C
  kDisjointProperties,    ///< DisjointObjectProperties(R1 R2)
};

/// One OWL axiom. Class operands live in `classes`; role operands in
/// `roles` (basic roles: named property or its inverse).
struct OwlAxiom {
  AxiomKind kind;
  std::vector<ClassExprPtr> classes;
  std::vector<dllite::BasicRole> roles;

  static OwlAxiom SubClassOf(ClassExprPtr sub, ClassExprPtr sup) {
    return {AxiomKind::kSubClassOf, {sub, sup}, {}};
  }
  static OwlAxiom EquivalentClasses(std::vector<ClassExprPtr> cs) {
    return {AxiomKind::kEquivalentClasses, std::move(cs), {}};
  }
  static OwlAxiom DisjointClasses(std::vector<ClassExprPtr> cs) {
    return {AxiomKind::kDisjointClasses, std::move(cs), {}};
  }
  static OwlAxiom SubObjectPropertyOf(dllite::BasicRole sub,
                                      dllite::BasicRole sup) {
    return {AxiomKind::kSubObjectPropertyOf, {}, {sub, sup}};
  }
  static OwlAxiom InverseProperties(dllite::BasicRole p, dllite::BasicRole q) {
    return {AxiomKind::kInverseProperties, {}, {p, q}};
  }
  static OwlAxiom Domain(dllite::BasicRole r, ClassExprPtr c) {
    return {AxiomKind::kObjectPropertyDomain, {c}, {r}};
  }
  static OwlAxiom Range(dllite::BasicRole r, ClassExprPtr c) {
    return {AxiomKind::kObjectPropertyRange, {c}, {r}};
  }
  static OwlAxiom DisjointProperties(dllite::BasicRole p,
                                     dllite::BasicRole q) {
    return {AxiomKind::kDisjointProperties, {}, {p, q}};
  }

  /// Renders in functional-style syntax.
  std::string ToString(const dllite::Vocabulary& vocab) const;
};

/// An expressive (ALCHI-expressible) ontology: signature, expression
/// factory and axiom list. Input for the tableau reasoner and for
/// OWL→DL-Lite approximation.
class OwlOntology {
 public:
  OwlOntology() : factory_(std::make_unique<ExprFactory>()) {}

  dllite::Vocabulary& vocab() { return vocab_; }
  const dllite::Vocabulary& vocab() const { return vocab_; }
  ExprFactory& factory() { return *factory_; }
  const ExprFactory& factory() const { return *factory_; }

  void AddAxiom(OwlAxiom ax) { axioms_.push_back(std::move(ax)); }
  const std::vector<OwlAxiom>& axioms() const { return axioms_; }

  /// Renders the whole ontology in functional-style syntax.
  std::string ToString() const;

 private:
  dllite::Vocabulary vocab_;
  std::unique_ptr<ExprFactory> factory_;
  std::vector<OwlAxiom> axioms_;
};

/// Parses a (subset of) OWL 2 functional-style syntax document:
/// `Ontology(...)` wrapper optional; `Prefix`/`Declaration` lines accepted;
/// class expressions over ObjectIntersectionOf / ObjectUnionOf /
/// ObjectComplementOf / ObjectSomeValuesFrom / ObjectAllValuesFrom /
/// ObjectMinCardinality(1 …) / ObjectInverseOf; axiom kinds per
/// `AxiomKind`. Names may carry a `:` prefix which is stripped.
Result<std::unique_ptr<OwlOntology>> ParseOwl(std::string_view text);

}  // namespace olite::owl

#endif  // OLITE_OWL_ONTOLOGY_H_
