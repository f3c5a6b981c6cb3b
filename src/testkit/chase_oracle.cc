#include "testkit/chase_oracle.h"

#include <algorithm>
#include <array>
#include <deque>
#include <set>
#include <unordered_map>

namespace olite::testkit {

namespace {

using dllite::BasicConcept;
using dllite::BasicConceptKind;
using dllite::BasicRole;
using dllite::ConceptInclusion;
using dllite::RhsConceptKind;
using query::Atom;
using query::ConjunctiveQuery;
using query::Term;

/// The saturation workspace: objects are dense ids (named individuals
/// first, labelled nulls appended), facts are deduplicated sets, and a
/// worklist drives naive rule application to fixpoint.
struct Builder {
  const dllite::TBox& tbox;
  const uint32_t max_depth;

  struct Object {
    std::string name;
    bool named = false;
    uint32_t depth = 0;
  };
  std::vector<Object> objects;
  std::vector<std::pair<std::string, bool>> values;  // text, named

  // Dedup: (concept, obj), (role, subj, obj), (attr, subj, value).
  std::set<std::array<uint32_t, 2>> concept_set;
  std::set<std::array<uint32_t, 3>> role_set;
  std::set<std::array<uint32_t, 3>> attr_set;

  // Worklist entries: kind 0 = concept (a = predicate, b = obj),
  // 1 = role (b, c = subj, obj), 2 = attribute (b = subj, c = value).
  struct Pending {
    uint8_t kind;
    uint32_t a, b, c;
  };
  std::deque<Pending> worklist;

  // Rule index over the positive concept inclusions, keyed by LHS shape.
  std::unordered_map<uint32_t, std::vector<const ConceptInclusion*>>
      by_atomic, by_exists_fwd, by_exists_inv, by_attrdom;
  std::unordered_map<uint32_t, std::vector<const dllite::RoleInclusion*>>
      role_incls;
  std::unordered_map<uint32_t, std::vector<const dllite::AttributeInclusion*>>
      attr_incls;
  /// Oblivious-chase memo: each existential axiom fires at most once per
  /// object ((axiom index << 32) | object id).
  std::set<uint64_t> fired;

  Builder(const dllite::TBox& t, uint32_t depth) : tbox(t), max_depth(depth) {
    for (const auto& ci : t.concept_inclusions()) {
      if (ci.rhs.kind == RhsConceptKind::kNegatedBasic) continue;
      switch (ci.lhs.kind) {
        case BasicConceptKind::kAtomic:
          by_atomic[ci.lhs.concept_id].push_back(&ci);
          break;
        case BasicConceptKind::kExists:
          (ci.lhs.role.inverse ? by_exists_inv
                               : by_exists_fwd)[ci.lhs.role.role]
              .push_back(&ci);
          break;
        case BasicConceptKind::kAttrDomain:
          by_attrdom[ci.lhs.attribute].push_back(&ci);
          break;
      }
    }
    for (const auto& ri : t.role_inclusions()) {
      if (!ri.negated) role_incls[ri.lhs.role].push_back(&ri);
    }
    for (const auto& ai : t.attribute_inclusions()) {
      if (!ai.negated) attr_incls[ai.lhs].push_back(&ai);
    }
  }

  uint32_t NewObject(std::string name, bool named, uint32_t depth) {
    objects.push_back({std::move(name), named, depth});
    return static_cast<uint32_t>(objects.size() - 1);
  }
  uint32_t NewValue(std::string text, bool named) {
    values.emplace_back(std::move(text), named);
    return static_cast<uint32_t>(values.size() - 1);
  }
  uint32_t FreshNull() {
    return NewObject("_:n" + std::to_string(objects.size()), false,
                     /*depth=*/0);  // depth set by caller via objects.back()
  }

  void AddConcept(uint32_t concept_id, uint32_t obj) {
    if (concept_set.insert({concept_id, obj}).second) {
      worklist.push_back({0, concept_id, obj, 0});
    }
  }
  void AddRole(uint32_t role, uint32_t subj, uint32_t obj) {
    if (role_set.insert({role, subj, obj}).second) {
      worklist.push_back({1, role, subj, obj});
    }
  }
  void AddAttr(uint32_t attr, uint32_t subj, uint32_t value) {
    if (attr_set.insert({attr, subj, value}).second) {
      worklist.push_back({2, attr, subj, value});
    }
  }

  /// Asserts the RHS of a positive inclusion of object `x`. Existential
  /// RHS forms consult the per-(axiom, object) memo and the depth cap.
  void ApplyRhs(const ConceptInclusion* ci, uint32_t x) {
    const auto axiom_key =
        (static_cast<uint64_t>(ci - tbox.concept_inclusions().data()) << 32) |
        x;
    switch (ci->rhs.kind) {
      case RhsConceptKind::kNegatedBasic:
        return;
      case RhsConceptKind::kBasic: {
        const BasicConcept& b = ci->rhs.basic;
        if (b.kind == BasicConceptKind::kAtomic) {
          AddConcept(b.concept_id, x);
          return;
        }
        if (!fired.insert(axiom_key).second) return;
        if (b.kind == BasicConceptKind::kExists) {
          if (objects[x].depth + 1 >= max_depth) return;
          uint32_t y = FreshNull();
          objects[y].depth = objects[x].depth + 1;
          if (b.role.inverse) {
            AddRole(b.role.role, y, x);
          } else {
            AddRole(b.role.role, x, y);
          }
        } else {  // kAttrDomain: B ⊑ δ(U) forces some value
          AddAttr(b.attribute, x, NewValue("_:v" + std::to_string(values.size()),
                                           false));
        }
        return;
      }
      case RhsConceptKind::kQualifiedExists: {
        if (!fired.insert(axiom_key).second) return;
        if (objects[x].depth + 1 >= max_depth) return;
        uint32_t y = FreshNull();
        objects[y].depth = objects[x].depth + 1;
        if (ci->rhs.role.inverse) {
          AddRole(ci->rhs.role.role, y, x);
        } else {
          AddRole(ci->rhs.role.role, x, y);
        }
        AddConcept(ci->rhs.filler, y);
        return;
      }
    }
  }

  void Saturate() {
    while (!worklist.empty()) {
      Pending f = worklist.front();
      worklist.pop_front();
      if (f.kind == 0) {
        auto it = by_atomic.find(f.a);
        if (it == by_atomic.end()) continue;
        for (const ConceptInclusion* ci : it->second) ApplyRhs(ci, f.b);
      } else if (f.kind == 1) {
        // P(s, o) satisfies ∃P at s and ∃P⁻ at o.
        if (auto it = by_exists_fwd.find(f.a); it != by_exists_fwd.end()) {
          for (const ConceptInclusion* ci : it->second) ApplyRhs(ci, f.b);
        }
        if (auto it = by_exists_inv.find(f.a); it != by_exists_inv.end()) {
          for (const ConceptInclusion* ci : it->second) ApplyRhs(ci, f.c);
        }
        // Role inclusions: P(s,o) is Q1 = P at (s,o) and Q1 = P⁻ at (o,s);
        // Q2⁻(x,y) is stored as Q2(y,x), so one orientation pass covers
        // the implied inverse inclusion too.
        if (auto it = role_incls.find(f.a); it != role_incls.end()) {
          for (const dllite::RoleInclusion* ri : it->second) {
            uint32_t a = ri->lhs.inverse ? f.c : f.b;
            uint32_t b = ri->lhs.inverse ? f.b : f.c;
            if (ri->rhs.inverse) {
              AddRole(ri->rhs.role, b, a);
            } else {
              AddRole(ri->rhs.role, a, b);
            }
          }
        }
      } else {
        if (auto it = by_attrdom.find(f.a); it != by_attrdom.end()) {
          for (const ConceptInclusion* ci : it->second) ApplyRhs(ci, f.b);
        }
        if (auto it = attr_incls.find(f.a); it != attr_incls.end()) {
          for (const dllite::AttributeInclusion* ai : it->second) {
            AddAttr(ai->rhs, f.b, f.c);
          }
        }
      }
    }
  }
};

using Binding = std::unordered_map<std::string, std::string>;

/// Binds `term` to `value` unless that contradicts the binding so far or
/// puts a labelled null into an answer variable (a null never answers).
bool Bind(const Term& term, const std::string& value,
          const std::unordered_set<std::string>& answer_vars,
          const std::unordered_set<std::string>& named, Binding* binding,
          std::vector<std::string>* bound_here) {
  if (!term.IsVar()) return term.name == value;
  auto it = binding->find(term.name);
  if (it != binding->end()) return it->second == value;
  if (answer_vars.count(term.name) != 0 && named.count(value) == 0) {
    return false;
  }
  binding->emplace(term.name, value);
  bound_here->push_back(term.name);
  return true;
}

}  // namespace

ChaseOracle::ChaseOracle(const dllite::TBox& tbox,
                         const dllite::Vocabulary& vocab,
                         const dllite::ABox& abox, uint32_t max_depth) {
  Builder b(tbox, max_depth);

  // Seed: one chase object per named individual, one value per distinct
  // asserted attribute value.
  std::unordered_map<uint32_t, uint32_t> obj_of;  // IndividualId -> object
  auto object_of = [&](dllite::IndividualId ind) {
    auto it = obj_of.find(ind);
    if (it != obj_of.end()) return it->second;
    uint32_t id = b.NewObject(vocab.IndividualName(ind), true, 0);
    obj_of.emplace(ind, id);
    return id;
  };
  std::unordered_map<std::string, uint32_t> value_of;
  auto value_id = [&](const std::string& text) {
    auto it = value_of.find(text);
    if (it != value_of.end()) return it->second;
    uint32_t id = b.NewValue(text, true);
    value_of.emplace(text, id);
    return id;
  };
  for (const auto& a : abox.concept_assertions()) {
    b.AddConcept(a.concept_id, object_of(a.individual));
  }
  for (const auto& a : abox.role_assertions()) {
    b.AddRole(a.role, object_of(a.subject), object_of(a.object));
  }
  for (const auto& a : abox.attribute_assertions()) {
    b.AddAttr(a.attribute, object_of(a.subject), value_id(a.value));
  }

  b.Saturate();

  // Freeze into string-keyed, argument-indexed relations.
  auto add = [](Relation* r, std::string first, std::string second) {
    r->by_arg[0][first].push_back(r->rows.size());
    r->by_arg[1][second].push_back(r->rows.size());
    r->rows.push_back({std::move(first), std::move(second)});
  };
  auto& concepts = relations_[static_cast<size_t>(Atom::Kind::kConcept)];
  auto& roles = relations_[static_cast<size_t>(Atom::Kind::kRole)];
  auto& attrs = relations_[static_cast<size_t>(Atom::Kind::kAttribute)];
  concepts.resize(vocab.NumConcepts());
  roles.resize(vocab.NumRoles());
  attrs.resize(vocab.NumAttributes());
  for (const auto& f : b.concept_set) {
    if (f[0] < concepts.size()) add(&concepts[f[0]], b.objects[f[1]].name, "");
  }
  for (const auto& f : b.role_set) {
    if (f[0] < roles.size()) {
      add(&roles[f[0]], b.objects[f[1]].name, b.objects[f[2]].name);
    }
  }
  for (const auto& f : b.attr_set) {
    if (f[0] < attrs.size()) {
      add(&attrs[f[0]], b.objects[f[1]].name, b.values[f[2]].first);
    }
  }
  for (const auto& o : b.objects) {
    if (o.named) named_.insert(o.name);
  }
  for (const auto& [text, named] : b.values) {
    if (named) named_.insert(text);
  }
  num_objects_ = b.objects.size();
  num_facts_ =
      b.concept_set.size() + b.role_set.size() + b.attr_set.size();
}

std::vector<std::vector<std::string>> ChaseOracle::CertainAnswers(
    const ConjunctiveQuery& cq) const {
  // Answer variables: head variables not bound to a constant by rewriting
  // (those are absent from the body and emit the constant).
  std::unordered_set<std::string> answer_vars;
  for (const auto& head : cq.head_vars) {
    if (cq.HeadBinding(head) == nullptr) answer_vars.insert(head);
  }
  auto shares_var = [](const Atom& a, const Atom& b) {
    for (const auto& s : a.args) {
      for (const auto& t : b.args) {
        if (s.IsVar() && t.IsVar() && s.name == t.name) return true;
      }
    }
    return false;
  };
  auto relation = [&](const Atom& atom) -> const Relation* {
    const auto& rels = relations_[static_cast<size_t>(atom.kind)];
    return atom.predicate < rels.size() ? &rels[atom.predicate] : nullptr;
  };
  for (const Atom& atom : cq.atoms) {
    if (relation(atom) == nullptr) return {};  // a predicate without facts
  }

  // Partial answers over the components joined so far.
  std::vector<Binding> partial = {Binding{}};
  std::vector<bool> placed(cq.atoms.size(), false);
  for (size_t seed = 0; seed < cq.atoms.size(); ++seed) {
    if (placed[seed]) continue;
    // Flood-fill the connected component of atom `seed`.
    std::vector<size_t> pending = {seed};
    placed[seed] = true;
    for (size_t i = 0; i < pending.size(); ++i) {
      for (size_t j = 0; j < cq.atoms.size(); ++j) {
        if (!placed[j] && shares_var(cq.atoms[pending[i]], cq.atoms[j])) {
          placed[j] = true;
          pending.push_back(j);
        }
      }
    }
    std::vector<std::string> vars;  // the component's answer variables
    for (size_t i : pending) {
      for (const auto& t : cq.atoms[i].args) {
        if (t.IsVar() && answer_vars.count(t.name) != 0 &&
            std::find(vars.begin(), vars.end(), t.name) == vars.end()) {
          vars.push_back(t.name);
        }
      }
    }

    // Backtracking join over the component, projected onto `vars`.
    std::set<std::vector<std::string>> found;
    Binding binding;
    auto join = [&](auto&& self) -> void {
      if (pending.empty()) {
        std::vector<std::string> tuple;
        for (const auto& v : vars) tuple.push_back(binding.at(v));
        found.insert(std::move(tuple));
        return;
      }
      auto bound_args = [&](size_t i) {
        size_t n = 0;
        for (const auto& t : cq.atoms[i].args) {
          n += !t.IsVar() || binding.count(t.name) != 0;
        }
        return n;
      };
      auto next = std::max_element(
          pending.begin(), pending.end(),
          [&](size_t x, size_t y) { return bound_args(x) < bound_args(y); });
      const size_t at = next - pending.begin();
      const size_t ai = *next;
      pending.erase(next);
      const Atom& atom = cq.atoms[ai];
      const Relation& rel = *relation(atom);
      const std::vector<size_t>* candidates = nullptr;  // null = every row
      for (size_t k = 0; k < atom.args.size(); ++k) {
        const std::string* key = &atom.args[k].name;
        if (atom.args[k].IsVar()) {
          auto bound = binding.find(*key);
          if (bound == binding.end()) continue;
          key = &bound->second;
        }
        auto it = rel.by_arg[k].find(*key);
        static const std::vector<size_t> kNone;
        candidates = it == rel.by_arg[k].end() ? &kNone : &it->second;
        break;
      }
      auto try_row = [&](const std::array<std::string, 2>& row) {
        if (vars.empty() && !found.empty()) return;  // one match suffices
        std::vector<std::string> bound_here;
        bool ok = true;
        for (size_t k = 0; ok && k < atom.args.size(); ++k) {
          ok = Bind(atom.args[k], row[k], answer_vars, named_, &binding,
                    &bound_here);
        }
        if (ok) self(self);
        for (const auto& var : bound_here) binding.erase(var);
      };
      if (candidates != nullptr) {
        for (size_t pos : *candidates) try_row(rel.rows[pos]);
      } else {
        for (const auto& row : rel.rows) try_row(row);
      }
      pending.insert(pending.begin() + static_cast<ptrdiff_t>(at), ai);
    };
    join(join);
    if (found.empty()) return {};

    std::vector<Binding> crossed;
    for (const auto& p : partial) {
      for (const auto& tuple : found) {
        Binding b = p;
        for (size_t k = 0; k < vars.size(); ++k) b[vars[k]] = tuple[k];
        crossed.push_back(std::move(b));
      }
    }
    partial = std::move(crossed);
  }

  std::set<std::vector<std::string>> out;
  for (const auto& p : partial) {
    std::vector<std::string> tuple;
    tuple.reserve(cq.head_vars.size());
    for (const auto& head : cq.head_vars) {
      const std::string* constant = cq.HeadBinding(head);
      tuple.push_back(constant != nullptr ? *constant : p.at(head));
    }
    out.insert(std::move(tuple));
  }
  return std::vector<std::vector<std::string>>(out.begin(), out.end());
}

}  // namespace olite::testkit
