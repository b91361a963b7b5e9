//! The MEMOIR type system (paper §IV-E, Fig. 2).
//!
//! MEMOIR enforces static, strong typing for collection variables. Types are
//! interned in a [`TypeTable`] owned by the module, so a [`TypeId`] is a
//! cheap, comparable handle. Object types (`type T = { a: i32, b: f32 }`) are
//! nominal: they live in a separate arena keyed by [`ObjTypeId`] and may be
//! edited by layout transformations (field elision, dead field elimination,
//! field reordering).

use crate::ids::{IdMap, ObjTypeId, TypeId};
use std::collections::HashMap;
use std::fmt;

/// A MEMOIR type (Fig. 2: `T ::= PrimT | T_id | &T_id | Seq<T> | Assoc<T,T>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 64-bit signed integer.
    I64,
    /// 32-bit signed integer.
    I32,
    /// 16-bit signed integer.
    I16,
    /// 8-bit signed integer.
    I8,
    /// 64-bit unsigned integer.
    U64,
    /// 32-bit unsigned integer.
    U32,
    /// 16-bit unsigned integer.
    U16,
    /// 8-bit unsigned integer.
    U8,
    /// Boolean.
    Bool,
    /// Index into a collection's index space; unsigned, 64-bit in this
    /// implementation.
    Index,
    /// 64-bit IEEE-754 float.
    F64,
    /// 32-bit IEEE-754 float.
    F32,
    /// C-style raw pointer, included to support externally-laid-out memory
    /// (paper §IV-E). Opaque to MEMOIR analyses.
    Ptr,
    /// Nullable reference to an object of the given object type (`&T_id`).
    Ref(ObjTypeId),
    /// An inline object value of the given object type (`T_id`), used for
    /// nested object fields and associative-array keys.
    Object(ObjTypeId),
    /// Sequence with the given element type (`Seq<T>`).
    Seq(TypeId),
    /// Associative array from key type to value type (`Assoc<K, V>`).
    Assoc(TypeId, TypeId),
    /// The absence of a value (used for functions that return nothing).
    Void,
}

impl Type {
    /// Every type spelled by a keyword (see [`keyword`](Self::keyword)).
    pub const KEYWORD_TYPES: [Type; 14] = [
        Type::I64,
        Type::I32,
        Type::I16,
        Type::I8,
        Type::U64,
        Type::U32,
        Type::U16,
        Type::U8,
        Type::Bool,
        Type::Index,
        Type::F64,
        Type::F32,
        Type::Ptr,
        Type::Void,
    ];

    /// The keyword spelling this type in MEMOIR syntax (`i64`, `index`,
    /// …); `None` for references, objects and collections. A constant's
    /// type suffix (`7:I64`) is the same word, capitalized.
    pub fn keyword(self) -> Option<&'static str> {
        Some(match self {
            Type::I64 => "i64",
            Type::I32 => "i32",
            Type::I16 => "i16",
            Type::I8 => "i8",
            Type::U64 => "u64",
            Type::U32 => "u32",
            Type::U16 => "u16",
            Type::U8 => "u8",
            Type::Bool => "bool",
            Type::Index => "index",
            Type::F64 => "f64",
            Type::F32 => "f32",
            Type::Ptr => "ptr",
            Type::Void => "void",
            Type::Ref(_) | Type::Object(_) | Type::Seq(_) | Type::Assoc(..) => return None,
        })
    }

    /// Whether this is one of the primitive (non-collection, non-object)
    /// types of Fig. 2.
    pub fn is_primitive(self) -> bool {
        !matches!(
            self,
            Type::Seq(_) | Type::Assoc(..) | Type::Object(_) | Type::Void
        )
    }

    /// Whether this is a collection type (`Seq` or `Assoc`).
    pub fn is_collection(self) -> bool {
        matches!(self, Type::Seq(_) | Type::Assoc(..))
    }

    /// Whether this is an integer type (signed or unsigned, including
    /// `index`).
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            Type::I64
                | Type::I32
                | Type::I16
                | Type::I8
                | Type::U64
                | Type::U32
                | Type::U16
                | Type::U8
                | Type::Index
        )
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F64 | Type::F32)
    }

    /// Whether integer values of this type compare as unsigned.
    #[inline]
    pub fn is_unsigned(self) -> bool {
        matches!(
            self,
            Type::U64 | Type::U32 | Type::U16 | Type::U8 | Type::Index
        )
    }

    /// Whether this integer type is narrower than the `i64` payload that
    /// carries it, so [`Type::truncate`] is not the identity.
    #[inline]
    pub fn is_narrow(self) -> bool {
        matches!(
            self,
            Type::I8 | Type::U8 | Type::I16 | Type::U16 | Type::I32 | Type::U32
        )
    }

    /// Wraps an `i64` payload to this type's width (sign-extending signed
    /// types, zero-extending unsigned ones); the identity on wide types.
    #[inline]
    pub fn truncate(self, v: i64) -> i64 {
        match self {
            Type::I8 => v as i8 as i64,
            Type::U8 => v as u8 as i64,
            Type::I16 => v as i16 as i64,
            Type::U16 => v as u16 as i64,
            Type::I32 => v as i32 as i64,
            Type::U32 => v as u32 as i64,
            _ => v,
        }
    }

    /// Size in bytes of a value of this type when stored in memory, per the
    /// lowering layout used throughout the evaluation. Collections report
    /// the size of their *handle* (a pointer-sized header reference); their
    /// storage is accounted by the heap model.
    pub fn byte_size(self, table: &TypeTable) -> u64 {
        match self {
            Type::I8 | Type::U8 | Type::Bool => 1,
            Type::I16 | Type::U16 => 2,
            Type::I32 | Type::U32 | Type::F32 => 4,
            Type::I64 | Type::U64 | Type::F64 | Type::Index | Type::Ptr | Type::Ref(_) => 8,
            Type::Seq(_) | Type::Assoc(..) => 8,
            Type::Object(obj) => table.object_layout(obj).size,
            Type::Void => 0,
        }
    }

    /// Alignment in bytes of a value of this type.
    pub fn align(self, table: &TypeTable) -> u64 {
        match self {
            Type::Object(obj) => table.object_layout(obj).align,
            Type::Void => 1,
            other => other.byte_size(table),
        }
    }
}

/// A single field of an object type definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field name, unique within the object type.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
}

/// An object type definition (Fig. 2: `type T_id = { x: T, ... }`).
///
/// Object types are an ordered list of individually addressable, typed
/// fields. They may nest other object types but may not be recursive
/// (checked by [`TypeTable::define_object`]), which guarantees a finite,
/// statically-known size and a finite-depth equality when used as keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectType {
    /// Nominal name of the type.
    pub name: String,
    /// Ordered fields. Layout transformations may remove or reorder these.
    pub fields: Vec<Field>,
}

impl ObjectType {
    /// Index of the field with the given name, if present.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// Memory layout computed for an object type: total size, alignment, and
/// per-field offsets under C-like struct layout rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectLayout {
    /// Total size in bytes, padded to alignment.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Byte offset of each field, in field order.
    pub offsets: Vec<u64>,
}

/// Errors raised by [`TypeTable`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// An object type definition would be directly or indirectly recursive.
    RecursiveObjectType(String),
    /// A field name is duplicated within one object type.
    DuplicateField(String, String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::RecursiveObjectType(name) => {
                write!(f, "object type `{name}` is recursively defined")
            }
            TypeError::DuplicateField(ty, field) => {
                write!(
                    f,
                    "object type `{ty}` defines field `{field}` more than once"
                )
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Interner and registry for MEMOIR types and object type definitions.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    types: IdMap<TypeId, Type>,
    interned: HashMap<Type, TypeId>,
    objects: IdMap<ObjTypeId, ObjectType>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a type, returning its id. Identical types always intern to
    /// the same id.
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some(&id) = self.interned.get(&ty) {
            return id;
        }
        let id = self.types.push(ty);
        self.interned.insert(ty, id);
        id
    }

    /// Convenience: interns `Seq<elem>`.
    pub fn seq_of(&mut self, elem: TypeId) -> TypeId {
        self.intern(Type::Seq(elem))
    }

    /// Convenience: interns `Assoc<key, value>`.
    pub fn assoc_of(&mut self, key: TypeId, value: TypeId) -> TypeId {
        self.intern(Type::Assoc(key, value))
    }

    /// Convenience: interns `&obj`.
    pub fn ref_of(&mut self, obj: ObjTypeId) -> TypeId {
        self.intern(Type::Ref(obj))
    }

    /// Resolves a type id to its type.
    pub fn get(&self, id: TypeId) -> Type {
        self.types[id]
    }

    /// Iterates `(id, type)` over every interned type, in id order.
    pub fn entries(&self) -> impl Iterator<Item = (TypeId, Type)> + '_ {
        self.types.iter().map(|(id, &ty)| (id, ty))
    }

    /// Looks up the id of an already-interned type without interning it.
    pub fn interned_id(&self, ty: Type) -> Option<TypeId> {
        self.interned.get(&ty).copied()
    }

    /// Defines a new object type, checking the non-recursion and
    /// unique-field-name invariants of §IV-E.
    pub fn define_object(
        &mut self,
        name: impl Into<String>,
        fields: Vec<Field>,
    ) -> Result<ObjTypeId, TypeError> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.clone()) {
                return Err(TypeError::DuplicateField(name, f.name.clone()));
            }
        }
        // The new type will receive the next id; reject any inline `Object`
        // field that (transitively) reaches it. Since the id is not yet
        // allocated, recursion can only occur through ids >= objects.len(),
        // which cannot exist; but nested existing object types might later
        // be made recursive only by editing, which `set_fields` re-checks.
        let id = self.objects.push(ObjectType { name, fields });
        Ok(id)
    }

    /// Returns the object type definition.
    pub fn object(&self, id: ObjTypeId) -> &ObjectType {
        &self.objects[id]
    }

    /// Number of defined object types.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Iterates over object type definitions.
    pub fn objects(&self) -> impl Iterator<Item = (ObjTypeId, &ObjectType)> {
        self.objects.iter()
    }

    /// Replaces the fields of an object type (used by layout
    /// transformations), re-checking invariants.
    pub fn set_fields(&mut self, id: ObjTypeId, fields: Vec<Field>) -> Result<(), TypeError> {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(TypeError::DuplicateField(
                    self.objects[id].name.clone(),
                    f.name.clone(),
                ));
            }
            if let Type::Object(inner) = self.get(f.ty) {
                if self.object_reaches(inner, id) || inner == id {
                    return Err(TypeError::RecursiveObjectType(
                        self.objects[id].name.clone(),
                    ));
                }
            }
        }
        self.objects[id].fields = fields;
        Ok(())
    }

    fn object_reaches(&self, from: ObjTypeId, target: ObjTypeId) -> bool {
        self.objects[from]
            .fields
            .iter()
            .any(|f| match self.get(f.ty) {
                Type::Object(inner) => inner == target || self.object_reaches(inner, target),
                _ => false,
            })
    }

    /// Computes the C-like memory layout of an object type: fields at their
    /// aligned offsets, total size padded to the maximum field alignment.
    pub fn object_layout(&self, id: ObjTypeId) -> ObjectLayout {
        let obj = &self.objects[id];
        let mut offset = 0u64;
        let mut align = 1u64;
        let mut offsets = Vec::with_capacity(obj.fields.len());
        for f in &obj.fields {
            let ty = self.get(f.ty);
            let fa = ty.align(self).max(1);
            let fs = ty.byte_size(self);
            align = align.max(fa);
            offset = offset.div_ceil(fa) * fa;
            offsets.push(offset);
            offset += fs;
        }
        let size = offset.div_ceil(align) * align;
        ObjectLayout {
            size,
            align,
            offsets,
        }
    }

    /// Renders a type as MEMOIR surface syntax (e.g. `Seq<i32>`,
    /// `Assoc<&T0, f64>`).
    pub fn display(&self, id: TypeId) -> String {
        let mut out = String::new();
        self.write_type(&mut out, id)
            .expect("a String sink never fails");
        out
    }

    /// Writes a type as MEMOIR surface syntax into `w`: the one type
    /// renderer, shared by [`display`](Self::display) and the printer.
    pub(crate) fn write_type<W: fmt::Write>(&self, w: &mut W, id: TypeId) -> fmt::Result {
        let name = match self.get(id) {
            Type::Ref(obj) => {
                w.write_char('&')?;
                &self.objects[obj].name
            }
            Type::Object(obj) => &self.objects[obj].name,
            Type::Seq(elem) => {
                w.write_str("Seq<")?;
                self.write_type(w, elem)?;
                ">"
            }
            Type::Assoc(k, v) => {
                w.write_str("Assoc<")?;
                self.write_type(w, k)?;
                w.write_str(", ")?;
                self.write_type(w, v)?;
                ">"
            }
            ty => ty.keyword().unwrap_or_default(),
        };
        w.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_obj() -> (TypeTable, ObjTypeId) {
        let mut t = TypeTable::new();
        let i32t = t.intern(Type::I32);
        let f32t = t.intern(Type::F32);
        let obj = t
            .define_object(
                "t0",
                vec![
                    Field {
                        name: "a".into(),
                        ty: i32t,
                    },
                    Field {
                        name: "b".into(),
                        ty: f32t,
                    },
                ],
            )
            .unwrap();
        (t, obj)
    }

    #[test]
    fn interning_dedupes() {
        let mut t = TypeTable::new();
        let a = t.intern(Type::I32);
        let b = t.intern(Type::I32);
        assert_eq!(a, b);
        let s1 = t.seq_of(a);
        let s2 = t.seq_of(b);
        assert_eq!(s1, s2);
        assert_ne!(a, s1);
    }

    #[test]
    fn duplicate_field_rejected() {
        let mut t = TypeTable::new();
        let i = t.intern(Type::I64);
        let err = t
            .define_object(
                "bad",
                vec![
                    Field {
                        name: "x".into(),
                        ty: i,
                    },
                    Field {
                        name: "x".into(),
                        ty: i,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, TypeError::DuplicateField(..)));
    }

    #[test]
    fn layout_is_c_like() {
        let mut t = TypeTable::new();
        let i8t = t.intern(Type::I8);
        let i64t = t.intern(Type::I64);
        let obj = t
            .define_object(
                "padded",
                vec![
                    Field {
                        name: "a".into(),
                        ty: i8t,
                    },
                    Field {
                        name: "b".into(),
                        ty: i64t,
                    },
                    Field {
                        name: "c".into(),
                        ty: i8t,
                    },
                ],
            )
            .unwrap();
        let layout = t.object_layout(obj);
        assert_eq!(layout.offsets, vec![0, 8, 16]);
        assert_eq!(layout.align, 8);
        assert_eq!(layout.size, 24);
    }

    #[test]
    fn dead_field_elimination_shrinks_layout() {
        let (mut t, obj) = table_with_obj();
        let before = t.object_layout(obj).size;
        let keep = vec![t.object(obj).fields[0].clone()];
        t.set_fields(obj, keep).unwrap();
        let after = t.object_layout(obj).size;
        assert!(after < before);
    }

    #[test]
    fn recursive_edit_rejected() {
        let mut t = TypeTable::new();
        let i = t.intern(Type::I32);
        let a = t
            .define_object(
                "A",
                vec![Field {
                    name: "x".into(),
                    ty: i,
                }],
            )
            .unwrap();
        let a_inline = t.intern(Type::Object(a));
        let err = t
            .set_fields(
                a,
                vec![Field {
                    name: "self_".into(),
                    ty: a_inline,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, TypeError::RecursiveObjectType(_)));
    }

    #[test]
    fn references_are_allowed_to_self() {
        // `&T` fields do not make a type recursive: references are handles.
        let mut t = TypeTable::new();
        let a = t.define_object("Node", vec![]).unwrap();
        let r = t.ref_of(a);
        t.set_fields(
            a,
            vec![Field {
                name: "next".into(),
                ty: r,
            }],
        )
        .unwrap();
        assert_eq!(t.object_layout(a).size, 8);
    }

    #[test]
    fn display_round_trips_names() {
        let (mut t, obj) = table_with_obj();
        let r = t.ref_of(obj);
        let s = t.seq_of(r);
        assert_eq!(t.display(s), "Seq<&t0>");
        let b = t.intern(Type::Bool);
        let a = t.assoc_of(b, s);
        assert_eq!(t.display(a), "Assoc<bool, Seq<&t0>>");
    }

    #[test]
    fn byte_sizes() {
        let (t, obj) = table_with_obj();
        assert_eq!(Type::I16.byte_size(&t), 2);
        assert_eq!(Type::Ref(obj).byte_size(&t), 8);
        assert_eq!(Type::Object(obj).byte_size(&t), 8); // i32 + f32
        assert!(Type::Index.is_integer());
        assert!(Type::F32.is_float());
        assert!(!Type::Seq(TypeId::from_raw(0)).is_primitive());
    }
}
