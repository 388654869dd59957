package core

// TemplatedNonlinearModel exposes the collapsed-walk test model to the
// external equivalence tests.
var TemplatedNonlinearModel = templatedNonlinearModel
