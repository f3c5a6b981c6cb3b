#include "owl/ontology.h"

namespace olite::owl {

std::string OwlAxiom::ToString(const dllite::Vocabulary& vocab) const {
  auto role_str = [&](dllite::BasicRole r) {
    if (r.inverse) {
      return "ObjectInverseOf(" + vocab.RoleName(r.role) + ")";
    }
    return vocab.RoleName(r.role);
  };
  switch (kind) {
    case AxiomKind::kSubClassOf:
      return "SubClassOf(" + classes[0]->ToString(vocab) + " " +
             classes[1]->ToString(vocab) + ")";
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses: {
      std::string out = kind == AxiomKind::kEquivalentClasses
                            ? "EquivalentClasses("
                            : "DisjointClasses(";
      for (size_t i = 0; i < classes.size(); ++i) {
        if (i > 0) out += ' ';
        out += classes[i]->ToString(vocab);
      }
      return out + ")";
    }
    case AxiomKind::kSubObjectPropertyOf:
      return "SubObjectPropertyOf(" + role_str(roles[0]) + " " +
             role_str(roles[1]) + ")";
    case AxiomKind::kInverseProperties:
      return "InverseObjectProperties(" + role_str(roles[0]) + " " +
             role_str(roles[1]) + ")";
    case AxiomKind::kObjectPropertyDomain:
      return "ObjectPropertyDomain(" + role_str(roles[0]) + " " +
             classes[0]->ToString(vocab) + ")";
    case AxiomKind::kObjectPropertyRange:
      return "ObjectPropertyRange(" + role_str(roles[0]) + " " +
             classes[0]->ToString(vocab) + ")";
    case AxiomKind::kDisjointProperties:
      return "DisjointObjectProperties(" + role_str(roles[0]) + " " +
             role_str(roles[1]) + ")";
  }
  return "?";
}

std::string OwlOntology::ToString() const {
  std::string out = "Ontology(\n";
  for (size_t i = 0; i < vocab_.NumConcepts(); ++i) {
    out += "Declaration(Class(" +
           vocab_.ConceptName(static_cast<dllite::ConceptId>(i)) + "))\n";
  }
  for (size_t i = 0; i < vocab_.NumRoles(); ++i) {
    out += "Declaration(ObjectProperty(" +
           vocab_.RoleName(static_cast<dllite::RoleId>(i)) + "))\n";
  }
  for (const auto& ax : axioms_) {
    out += ax.ToString(vocab_);
    out += "\n";
  }
  out += ")\n";
  return out;
}

}  // namespace olite::owl
